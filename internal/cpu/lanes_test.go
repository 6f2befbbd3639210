package cpu

import (
	"testing"

	"dricache/internal/bpred"
	"dricache/internal/dri"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/trace"
)

// TestRunLanesMatchesSoloPipelines pins the lane executor to the solo
// pipeline: N lanes advanced lock-step over one decode — including lanes
// with different branch-predictor configurations, which form separate
// predictor groups — must each produce the cpu.Result and memory traffic of
// running that pipeline alone over the same stream, whether the lanes are
// fed by a replay cursor or by the generator through the chunk adapter.
func TestRunLanesMatchesSoloPipelines(t *testing.T) {
	prog, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 120_000
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
	bpBig := bpred.DefaultConfig()
	bpSmall := bpBig
	bpSmall.BTBEntries = 256
	bpSmall.HistoryBits = 8

	cases := []struct {
		name string
		l1i  dri.Config
		bp   bpred.Config
	}{
		{"conv/defaultBP", l1iConv, bpBig},
		{"dri/defaultBP", l1iDRI, bpBig},
		{"conv/smallBP", l1iConv, bpSmall},
		{"dri/smallBP", l1iDRI, bpSmall},
	}

	solo := make([]Result, len(cases))
	soloMem := make([]mem.Stats, len(cases))
	for i, c := range cases {
		h := mem.New(mem.DefaultConfig(c.l1i))
		p := New(DefaultConfig(), h, h, bpred.New(c.bp), h)
		cur := rep.Cursor()
		solo[i] = p.Run(&cur)
		h.Finish(solo[i].Cycles)
		soloMem[i] = h.Stats()
	}

	cur := rep.Cursor()
	sources := map[string]isa.ChunkSource{
		"replay":    &cur,
		"generator": isa.ChunksOf(prog.Stream(n)),
	}
	for src, chunks := range sources {
		hs := make([]*mem.Hierarchy, len(cases))
		pipes := make([]*Pipeline, len(cases))
		for i, c := range cases {
			hs[i] = mem.New(mem.DefaultConfig(c.l1i))
			pipes[i] = New(DefaultConfig(), hs[i], hs[i], bpred.New(c.bp), hs[i])
		}
		got := RunLanes(chunks, pipes)
		for i, c := range cases {
			hs[i].Finish(got[i].Cycles)
			if got[i] != solo[i] {
				t.Errorf("%s/%s: cpu.Result diverged:\n  lane %+v\n  solo %+v", src, c.name, got[i], solo[i])
			}
			if hs[i].Stats() != soloMem[i] {
				t.Errorf("%s/%s: mem.Stats diverged:\n  lane %+v\n  solo %+v", src, c.name, hs[i].Stats(), soloMem[i])
			}
		}
	}
}

// TestRunLanesRejectsForeignMemory: lanes require the fused whole-system
// shape; a pipeline over a foreign data-memory model is a programming
// error, reported by panic.
func TestRunLanesRejectsForeignMemory(t *testing.T) {
	l1i := dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32}
	h := mem.New(mem.DefaultConfig(l1i))
	p := New(DefaultConfig(), h, &perfectDMem{}, bpred.New(bpred.DefaultConfig()), h)
	rep, _ := isa.RecordStream(&isa.SliceStream{}, 0)
	cur := rep.Cursor()
	defer func() {
		if recover() == nil {
			t.Fatal("foreign dmem did not panic")
		}
	}()
	RunLanes(&cur, []*Pipeline{p})
}
