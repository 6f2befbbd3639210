package engine

// Cancellation-correctness properties. Cancelling mid-run is only safe if
// the result cache stays truthful: an aborted simulation must never leave
// an entry (poisoned or partial), and a retry of the same request must
// produce results bit-identical to a run that was never cancelled. These
// tests pin that for all six leakage-control policies and for the lane
// batch path, using the timeline sink to cancel deterministically at the
// first interval point rather than at an arbitrary wall-clock moment.

import (
	"context"
	"errors"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"dricache/internal/cpu"
	"dricache/internal/dri"
	"dricache/internal/policy"
	"dricache/internal/sim"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// cancelPolicyConfigs builds one simulation config per leakage-control
// policy, timeline-enabled so the interval sink can trigger cancellation at
// a deterministic instruction count.
func cancelPolicyConfigs(instrs uint64) map[string]sim.Config {
	const iv = 50_000
	geom := func(assoc int) dri.Config {
		return dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: assoc, AddrBits: 32}
	}
	cfgs := map[string]sim.Config{
		"conventional": sim.Default(geom(1), instrs),
		"dri":          sim.Default(quickDRI(), instrs),
		"decay":        sim.Default(geom(1), instrs).WithL1IPolicy(policy.DefaultDecay(iv)),
		"drowsy":       sim.Default(geom(1), instrs).WithL1IPolicy(policy.DefaultDrowsy(iv)),
		"waygate":      sim.Default(geom(4), instrs).WithL1IPolicy(policy.DefaultWayGate(iv)),
		"waymemo":      sim.Default(geom(4), instrs).WithL1IPolicy(policy.DefaultWayMemo(iv)),
	}
	for name, c := range cfgs {
		c.Timeline = timeline.Config{Enabled: true, IntervalInstructions: iv}
		cfgs[name] = c
	}
	return cfgs
}

// TestCancelledRunLeavesCleanCacheAllPolicies cancels one run per policy at
// its first interval point and checks the three-part property: the abort
// surfaces as cpu.ErrAborted, the cache retains nothing (no poisoned or
// partial entry, nothing in flight), and an immediate retry simulates
// fresh and matches an uncancelled run bit for bit.
func TestCancelledRunLeavesCleanCacheAllPolicies(t *testing.T) {
	prog, err := trace.ByName("applu")
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range cancelPolicyConfigs(2_000_000) {
		t.Run(name, func(t *testing.T) {
			want := sim.Run(cfg, prog)

			e := New(0)
			ctx, cancel := context.WithCancelCause(context.Background())
			ctx = timeline.WithSink(ctx, func(timeline.Point) {
				cancel(errors.New("test: first interval"))
			})
			_, _, err := e.RunCachedCtx(ctx, cfg, prog)
			if !errors.Is(err, cpu.ErrAborted) {
				t.Fatalf("RunCachedCtx err = %v, want cpu.ErrAborted", err)
			}
			st := e.Stats()
			if st.Entries != 0 || st.InFlight != 0 {
				t.Fatalf("after abort: %d entries, %d in flight; want a clean cache", st.Entries, st.InFlight)
			}

			res, cached, err := e.RunCachedCtx(context.Background(), cfg, prog)
			if err != nil {
				t.Fatalf("retry after abort: %v", err)
			}
			if cached {
				t.Fatal("retry served from cache; the aborted run must not have been cached")
			}
			if !reflect.DeepEqual(*res, want) {
				t.Fatalf("retry result diverges from uncancelled run")
			}
		})
	}
}

// TestCancelledBatchRetriesCleanly cancels a lane batch (all six policies
// as lanes over one stream) at its first interval point: RunManyCtx must
// surface the abort with nothing left in flight, and re-running the same
// requests must reproduce a never-cancelled engine's results exactly —
// batches that completed before the cancel may be served from cache, but
// nothing partial may be.
func TestCancelledBatchRetriesCleanly(t *testing.T) {
	prog, err := trace.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, cfg := range cancelPolicyConfigs(2_000_000) {
		reqs = append(reqs, Request{Config: cfg, Prog: prog})
	}
	ref := New(0)
	want := ref.RunMany(reqs)

	e := New(0)
	ctx, cancel := context.WithCancelCause(context.Background())
	ctx = timeline.WithSink(ctx, func(timeline.Point) {
		cancel(errors.New("test: first interval"))
	})
	if _, err := e.RunManyCtx(ctx, reqs); !errors.Is(err, cpu.ErrAborted) {
		t.Fatalf("RunManyCtx err = %v, want cpu.ErrAborted", err)
	}
	if st := e.Stats(); st.InFlight != 0 {
		t.Fatalf("after abort: %d in flight, want 0", st.InFlight)
	}

	got, err := e.RunManyCtx(context.Background(), reqs)
	if err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("retry result %d diverges from uncancelled run", i)
		}
	}
}

// TestCancelledBypassBatchRetriesCleanly cancels a generator-fed lane
// batch (the trace store's budget at zero, all six policies as lanes) at
// its first interval point. The abort must surface as cpu.ErrAborted at a
// chunk boundary; the engine must cache nothing and count nothing from the
// aborted batch (neither its own lane counters nor the executor's); and a
// retry must match the warm-store runs bit for bit.
func TestCancelledBypassBatchRetriesCleanly(t *testing.T) {
	st := trace.SharedStore()
	st.SetBudget(0)
	defer st.SetBudget(trace.DefaultStoreBudget)

	prog, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 400_000
	var reqs []Request
	for _, cfg := range cancelPolicyConfigs(budget) {
		reqs = append(reqs, Request{Config: cfg, Prog: prog})
	}

	e := New(1) // one worker and one group: all six lanes in one batch
	lanes0 := sim.ReadLaneStats()
	ctx, cancel := context.WithCancelCause(context.Background())
	ctx = timeline.WithSink(ctx, func(timeline.Point) {
		cancel(errors.New("test: first interval"))
	})
	_, err = e.RunManyCtx(ctx, reqs)
	if !errors.Is(err, cpu.ErrAborted) {
		t.Fatalf("RunManyCtx err = %v, want cpu.ErrAborted", err)
	}
	m := regexp.MustCompile(`after (\d+) instructions`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("abort error %q does not name its instruction count", err)
	}
	if at, _ := strconv.Atoi(m[1]); at == 0 || at >= budget || at%256 != 0 {
		t.Fatalf("aborted after %d instructions; want a chunk boundary inside the stream", at)
	}
	s := e.Stats()
	if s.Entries != 0 || s.InFlight != 0 {
		t.Fatalf("after abort: %d entries, %d in flight; want a clean cache", s.Entries, s.InFlight)
	}
	if s.Lanes.Batches != 0 || s.Lanes.Lanes != 0 || s.Lanes.DecodeSaved != 0 {
		t.Fatalf("aborted batch was counted: %+v", s.Lanes)
	}
	if lanes1 := sim.ReadLaneStats(); lanes1 != lanes0 {
		t.Fatalf("aborted batch moved the executor counters: %+v -> %+v", lanes0, lanes1)
	}

	got, err := e.RunManyCtx(context.Background(), reqs)
	if err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	if s := e.Stats(); s.Lanes.Batches != 1 || s.Lanes.DecodeSaved != uint64(len(reqs)-1) {
		t.Fatalf("retry lane counters = %+v, want one batch saving %d decodes", s.Lanes, len(reqs)-1)
	}
	st.SetBudget(trace.DefaultStoreBudget)
	if st.Replay(prog, budget) == nil {
		t.Fatal("warm store did not record the stream")
	}
	for i, q := range reqs {
		if want := sim.Run(q.Config, prog); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("retry result %d diverges from the warm-store run", i)
		}
	}
}

// TestCancelSettlesPromptly bounds the wall time from cancellation to
// RunManyCtx returning on a whole-suite sweep: running batches abort at
// the next 256-instruction chunk and queued batches abort before paying
// for a stream decode, so settling is a matter of microseconds, not of
// finishing the sweep.
func TestCancelSettlesPromptly(t *testing.T) {
	// The settle bound is wall time, so it scales with the simulator: under
	// the race detector every chunk step and any stream-record pass already
	// underway when the cancel lands run an order of magnitude slower.
	settleBound, hangBound := 2*time.Second, 10*time.Second
	if raceEnabled {
		settleBound, hangBound = 30*time.Second, 120*time.Second
	}
	e := New(0)
	var reqs []Request
	for _, p := range trace.Benchmarks() {
		reqs = append(reqs, Request{Config: sim.Default(quickDRI(), 4_000_000), Prog: p})
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.RunManyCtx(ctx, reqs)
		done <- err
	}()
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	cancel(errors.New("test: cancel mid-sweep"))
	select {
	case err := <-done:
		if !errors.Is(err, cpu.ErrAborted) {
			t.Fatalf("RunManyCtx err = %v, want cpu.ErrAborted", err)
		}
		if settled := time.Since(start); settled > settleBound {
			t.Fatalf("cancel took %v to settle, want chunk-boundary promptness", settled)
		}
	case <-time.After(hangBound):
		t.Fatal("RunManyCtx did not settle after cancel")
	}
}

// TestCancelledForkedBatchRetriesCleanly cancels a lane batch after its
// fork class has split: a Figure 3-style grid whose members' solo
// timelines already differ before the cancel point, so the batch is
// running forked lanes when it aborts. Nothing may be cached or counted,
// and a retry must be bit-identical to solo runs.
func TestCancelledForkedBatchRetriesCleanly(t *testing.T) {
	prog, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget, iv, cancelAt = 400_000, 20_000, 200_000
	var reqs []Request
	for _, mb := range []uint64{40, 160, 640} {
		for _, sb := range []int{1 << 10, 64 << 10} {
			cfg := quickDRI()
			cfg.Params.SenseInterval = iv
			cfg.Params.MissBound, cfg.Params.SizeBoundBytes = mb, sb
			c := sim.Default(cfg, budget).WithTimeline(timeline.Config{Enabled: true, IntervalInstructions: iv})
			reqs = append(reqs, Request{Config: c, Prog: prog})
		}
	}
	solo := make([]sim.Result, len(reqs))
	for i, q := range reqs {
		solo[i] = sim.Run(q.Config, prog)
	}
	before := func(r sim.Result) []timeline.Point {
		var pts []timeline.Point
		for _, p := range r.Timeline.Points {
			if p.EndInstructions < cancelAt {
				pts = append(pts, p)
			}
		}
		return pts
	}
	diverged := false
	for _, r := range solo[1:] {
		diverged = diverged || !reflect.DeepEqual(before(r), before(solo[0]))
	}
	if !diverged {
		t.Fatal("the grid's members agree up to the cancel point; the batch would not have forked")
	}

	e := New(1) // one worker and one group: the whole class in one batch
	lanes0 := sim.ReadLaneStats()
	ctx, cancel := context.WithCancelCause(context.Background())
	ctx = timeline.WithSink(ctx, func(p timeline.Point) {
		if p.EndInstructions >= cancelAt {
			cancel(errors.New("test: after the fork"))
		}
	})
	if _, err := e.RunManyCtx(ctx, reqs); !errors.Is(err, cpu.ErrAborted) {
		t.Fatalf("RunManyCtx err = %v, want cpu.ErrAborted", err)
	}
	if s := e.Stats(); s.Entries != 0 || s.InFlight != 0 || s.Lanes.Batches != 0 {
		t.Fatalf("after abort: %d entries, %d in flight, lanes %+v; want nothing cached or counted",
			s.Entries, s.InFlight, s.Lanes)
	}
	if lanes1 := sim.ReadLaneStats(); lanes1 != lanes0 {
		t.Fatalf("aborted batch moved the executor counters: %+v -> %+v", lanes0, lanes1)
	}
	got, err := e.RunManyCtx(context.Background(), reqs)
	if err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	for i := range reqs {
		if !reflect.DeepEqual(got[i], solo[i]) {
			t.Fatalf("retry result %d diverges from its solo run", i)
		}
	}
	if sim.ReadLaneStats().Forks == lanes0.Forks {
		t.Fatal("the retried batch never forked")
	}
}
