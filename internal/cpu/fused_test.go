package cpu

import (
	"context"
	"testing"

	"dricache/internal/bpred"
	"dricache/internal/dri"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/policy"
	"dricache/internal/trace"
)

// loopResult is one run's observables: timing, memory traffic, and the
// L1 i-cache statistics.
type loopResult struct {
	res Result
	mem mem.Stats
	ic  dri.Stats
}

// runThreeWays runs the recorded instructions through a freshly built
// pipeline three ways over the hierarchy mk returns: Run over a replay
// cursor (the lane executor decoding the recording), Run over a plain
// stream (the lane executor fed by the isa.StreamChunks adapter), and
// runGeneric called directly — the reference interface loop, which Run no
// longer selects for a mem.Hierarchy.
func runThreeWays(t *testing.T, rep *isa.Replay, cfg Config, mk func() *mem.Hierarchy) (fused, adapted, generic loopResult) {
	t.Helper()
	run := func(f func(p *Pipeline) Result) loopResult {
		h := mk()
		p := New(cfg, h, h, bpred.New(bpred.DefaultConfig()), h)
		r := f(p)
		h.Finish(r.Cycles)
		return loopResult{r, h.Stats(), h.ICache().Stats()}
	}
	var instrs []isa.Instr
	var ins isa.Instr
	c := rep.Cursor()
	for c.Next(&ins) {
		instrs = append(instrs, ins)
	}
	fused = run(func(p *Pipeline) Result {
		cur := rep.Cursor()
		return p.Run(&cur)
	})
	adapted = run(func(p *Pipeline) Result {
		return p.Run(&isa.SliceStream{Instrs: instrs})
	})
	generic = run(func(p *Pipeline) Result {
		r, err := p.runGeneric(context.Background(), &isa.SliceStream{Instrs: instrs})
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
	return fused, adapted, generic
}

// checkSame reports every field group where got diverges from the
// runGeneric reference.
func checkSame(t *testing.T, what string, got, ref loopResult) {
	t.Helper()
	if got.res != ref.res {
		t.Errorf("%s: cpu.Result diverged:\n  got     %+v\n  generic %+v", what, got.res, ref.res)
	}
	if got.mem != ref.mem {
		t.Errorf("%s: mem.Stats diverged:\n  got     %+v\n  generic %+v", what, got.mem, ref.mem)
	}
	if got.ic != ref.ic {
		t.Errorf("%s: dri.Stats diverged:\n  got     %+v\n  generic %+v", what, got.ic, ref.ic)
	}
}

// TestFusedMatchesGeneric pins the lane executor to the generic interface
// loop: the same stream through the same system configuration must yield
// bit-identical results whether the lane decodes a replay cursor, takes a
// plain stream through the chunk adapter, or runGeneric runs it — the
// invariant that keeps golden suites unchanged now that every
// whole-system simulation runs on the lane. Exercised across port counts
// and with/without DRI ticking.
func TestFusedMatchesGeneric(t *testing.T) {
	prog, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 150_000
	rep, exact := isa.RecordStream(prog.Stream(n), n)
	if !exact {
		t.Fatal("recording inexact")
	}

	l1iConv := dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32}
	l1iDRI := l1iConv
	l1iDRI.Params = dri.Params{
		Enabled: true, MissBound: 100, SizeBoundBytes: 1 << 10,
		SenseInterval: 10_000, Divisibility: 2,
		ThrottleSaturation: 7, ThrottleIntervals: 10,
	}

	cases := []struct {
		name string
		l1i  dri.Config
		mut  func(*Config)
	}{
		{"conventional", l1iConv, nil},
		{"dri", l1iDRI, nil},
		{"single-port", l1iDRI, func(c *Config) { c.MemPorts = 1 }},
		{"quad-port", l1iConv, func(c *Config) { c.MemPorts = 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			fused, adapted, generic := runThreeWays(t, rep, cfg, func() *mem.Hierarchy {
				return mem.New(mem.DefaultConfig(tc.l1i))
			})
			checkSame(t, "replay lane", fused, generic)
			checkSame(t, "adapter lane", adapted, generic)
		})
	}
}

// TestFusedMemoMatchesGeneric pins the memoized lane — the fast path that
// probes the way-memoization link table and skips FetchBlock, plus the
// SeqPC same-block shortcut, fed by a replay cursor and by the chunk
// adapter — to the generic interface loop, across all benchmarks. Way memoization must be a pure accelerator: identical cycles,
// identical cache statistics (including the memo-hit counts themselves),
// identical energy inputs.
func TestFusedMemoMatchesGeneric(t *testing.T) {
	benches := trace.Benchmarks()
	if testing.Short() {
		benches = benches[:3]
	}
	const n = 150_000
	l1i := dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 4, AddrBits: 32}
	memCfg := mem.DefaultConfig(l1i)
	memCfg.L1IPolicy = policy.DefaultWayMemo(50_000)
	memCfg.L2Policy = policy.DefaultWayMemo(50_000)
	var totalMemoHits uint64
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			rep, exact := isa.RecordStream(b.Stream(n), n)
			if !exact {
				t.Fatal("recording inexact")
			}
			fused, adapted, generic := runThreeWays(t, rep, DefaultConfig(), func() *mem.Hierarchy {
				return mem.New(memCfg)
			})
			totalMemoHits += fused.ic.MemoHits
			checkSame(t, "replay lane", fused, generic)
			checkSame(t, "adapter lane", adapted, generic)
		})
	}
	if totalMemoHits == 0 {
		t.Error("no benchmark recorded a memo hit on the fused path; the fast path is not engaged")
	}
}

// TestFusedPathTaken asserts the dispatch logic actually selects the fused
// loop for the whole-system shape and the generic loop otherwise (guarding
// against silent de-optimization).
func TestFusedPathTaken(t *testing.T) {
	l1i := dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32}
	h := mem.New(mem.DefaultConfig(l1i))
	p := New(DefaultConfig(), h, h, nil, h)
	if !(p.tickIs(h) && p.dmemIs(h)) {
		t.Fatal("whole-system shape not recognized as fusable")
	}

	// Foreign dmem defeats fusing.
	p2 := New(DefaultConfig(), h, &perfectDMem{}, nil, h)
	if p2.dmemIs(h) {
		t.Fatal("foreign dmem reported as fusable")
	}
	// A foreign ticker defeats fusing; a nil one does not.
	p3 := New(DefaultConfig(), h, h, nil, &countTicker{})
	if p3.tickIs(h) {
		t.Fatal("foreign ticker reported as fusable")
	}
	p4 := New(DefaultConfig(), h, h, nil, nil)
	if !p4.tickIs(h) {
		t.Fatal("nil ticker should be fusable")
	}
}
