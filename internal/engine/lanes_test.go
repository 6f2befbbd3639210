package engine

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dricache/internal/sim"
	"dricache/internal/trace"
)

// cfgAt returns the i-th of a family of distinct simulation configs on one
// geometry and budget (distinct miss-bounds, so distinct cache keys within
// one lane group).
func cfgAt(i int) sim.Config {
	cfg := quickDRI()
	cfg.Params.MissBound = uint64(i + 1)
	return sim.Default(cfg, quickInstrs)
}

// TestRunManyGroupsAndSkipsCached drives the batch scheduler with a stub
// executor: cached requests and in-call duplicates never reach a batch, the
// remainder group by benchmark, and the lane counters account decode passes
// saved.
func TestRunManyGroupsAndSkipsCached(t *testing.T) {
	var executions atomic.Int64
	e := countingEngine(4, 0, &executions)
	applu, li := prog(t, "applu"), prog(t, "li")

	// Pre-cache one applu point; it must be served as a hit, not batched.
	e.Run(cfgAt(0), applu)

	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{Config: cfgAt(i), Prog: applu})
	}
	for i := 0; i < 4; i++ {
		reqs = append(reqs, Request{Config: cfgAt(i), Prog: li})
	}
	reqs = append(reqs, Request{Config: cfgAt(1), Prog: applu}) // in-call duplicate
	out := e.RunMany(reqs)

	if got := executions.Load(); got != 10 {
		t.Fatalf("executed %d simulations, want 10 (1 pre-cached + 9 batched)", got)
	}
	for i, want := range []string{"applu", "applu", "applu", "applu", "applu", "applu",
		"li", "li", "li", "li", "applu"} {
		if out[i].Benchmark != want {
			t.Fatalf("out[%d].Benchmark = %q, want %q", i, out[i].Benchmark, want)
		}
	}

	s := e.Stats()
	if s.Lanes.Groups != 2 {
		t.Errorf("lane groups = %d, want 2 (applu, li)", s.Lanes.Groups)
	}
	if s.Lanes.Lanes != 9 {
		t.Errorf("lanes = %d, want 9 (cached hit and duplicate skipped)", s.Lanes.Lanes)
	}
	// 4 workers over 2 groups would split each group into 2 batches, but
	// cfgAt points differ only in the miss-bound: each group is one fork
	// class and stays one batch (see TestPartitionKeepsForkClasses).
	if s.Lanes.Batches != 2 {
		t.Errorf("batches = %d, want 2", s.Lanes.Batches)
	}
	if s.Lanes.DecodeSaved != s.Lanes.Lanes-s.Lanes.Batches {
		t.Errorf("decodeSaved = %d, want lanes-batches = %d",
			s.Lanes.DecodeSaved, s.Lanes.Lanes-s.Lanes.Batches)
	}
	if s.Hits != 1 || s.Deduped != 1 || s.Misses != 10 {
		t.Errorf("hits/deduped/misses = %d/%d/%d, want 1/1/10", s.Hits, s.Deduped, s.Misses)
	}
}

// TestSetLanesCapsBatchSize pins the -lanes knob: a positive limit bounds
// every batch regardless of the automatic policy.
func TestSetLanesCapsBatchSize(t *testing.T) {
	e := New(1) // one worker and one group: automatic policy would run whole
	var (
		mu    sync.Mutex
		sizes []int
	)
	e.runLanesFn = func(_ context.Context, cfgs []sim.Config, p trace.Program) ([]sim.Result, error) {
		mu.Lock()
		sizes = append(sizes, len(cfgs))
		mu.Unlock()
		out := make([]sim.Result, len(cfgs))
		for i := range out {
			out[i] = sim.Result{Benchmark: p.Name}
		}
		return out, nil
	}
	e.SetLanes(2)
	if got := e.Lanes(); got != 2 {
		t.Fatalf("Lanes() = %d after SetLanes(2)", got)
	}
	var reqs []Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, Request{Config: cfgAt(i), Prog: prog(t, "applu")})
	}
	e.RunMany(reqs)
	total := 0
	for _, n := range sizes {
		if n > 2 {
			t.Errorf("batch of %d lanes exceeds SetLanes(2)", n)
		}
		total += n
	}
	if total != 5 {
		t.Errorf("batched %d lanes, want 5", total)
	}
	if got := e.Stats().Lanes.LanesPerBatch; got != 2 {
		t.Errorf("stats LanesPerBatch = %d, want 2", got)
	}
	e.SetLanes(-3)
	if got := e.Lanes(); got != 0 {
		t.Errorf("Lanes() = %d after SetLanes(-3), want 0 (automatic)", got)
	}
}

// TestLanesForPolicy pins the automatic partitioning: groups ≥ workers run
// whole (maximum decode sharing); fewer groups split to keep the pool busy.
func TestLanesForPolicy(t *testing.T) {
	cases := []struct {
		groupSize, numGroups, workers, limit, want int
	}{
		{12, 15, 8, 0, 12}, // enough groups to fill the pool: run whole
		{12, 1, 1, 0, 12},  // single worker: run whole
		{13, 3, 8, 0, 5},   // 3 groups on 8 workers: ~3 batches per group
		{16, 1, 3, 0, 6},   // 1 group on 3 workers: 3 batches
		{12, 15, 8, 4, 4},  // explicit cap wins
		{3, 15, 8, 8, 3},   // cap above group size: whole group
		{1, 1, 8, 0, 1},    // never below one lane
	}
	for _, c := range cases {
		if got := lanesFor(c.groupSize, c.numGroups, c.workers, c.limit); got != c.want {
			t.Errorf("lanesFor(%d, %d, %d, %d) = %d, want %d",
				c.groupSize, c.numGroups, c.workers, c.limit, got, c.want)
		}
	}
}

// TestPartitionKeepsForkClasses pins batch formation within one group:
// distinct classes pack into batches of the lanesFor size, a fork class
// (configurations equal but for the L1 i-cache miss-bound and size-bound)
// is never split across batches unless it exceeds an explicit limit, and
// every claim lands in exactly one batch.
func TestPartitionKeepsForkClasses(t *testing.T) {
	// Distinct classes: the sense interval differs.
	distinct := func(i int) sim.Config {
		cfg := quickDRI()
		cfg.Params.SenseInterval = uint64(10_000 * (i + 1))
		return sim.Default(cfg, quickInstrs)
	}
	// One class per size-bound family: the miss-bound varies within it.
	member := func(class, i int) sim.Config {
		cfg := quickDRI()
		cfg.Params.SenseInterval = uint64(10_000 * (class + 1))
		cfg.Params.MissBound = uint64(i + 1)
		cfg.Params.SizeBoundBytes = 1 << (10 + i%3)
		return sim.Default(cfg, quickInstrs)
	}
	claimsOf := func(cfgs ...sim.Config) []*laneClaim {
		out := make([]*laneClaim, len(cfgs))
		for i, c := range cfgs {
			out[i] = &laneClaim{idx: i, cfg: c}
		}
		return out
	}
	sizes := func(bs [][]*laneClaim) []int {
		var out []int
		for _, b := range bs {
			out = append(out, len(b))
		}
		return out
	}
	// The figure-3 shape on one benchmark: twelve grid points and the
	// baseline, split for two workers (lanes 7): the grid stays whole.
	var fig3 []sim.Config
	for i := 0; i < 12; i++ {
		fig3 = append(fig3, member(0, i))
	}
	fig3 = append(fig3, distinct(5))
	interleaved := []sim.Config{member(0, 0), member(1, 0), member(0, 1), member(1, 1), member(0, 2), member(1, 2)}
	var six []sim.Config
	for i := 0; i < 6; i++ {
		six = append(six, distinct(i))
	}
	var five []sim.Config
	for i := 0; i < 5; i++ {
		five = append(five, member(0, i))
	}
	cases := []struct {
		name         string
		cfgs         []sim.Config
		lanes, limit int
		want         []int
	}{
		{"distinct classes chunk by lanes", six, 4, 0, []int{4, 2}},
		{"figure 3 grid stays whole", fig3, 7, 0, []int{12, 1}},
		{"interleaved classes regroup", interleaved, 3, 0, []int{3, 3}},
		{"small classes pack together", interleaved, 6, 0, []int{6}},
		{"limit cuts an oversized class", five, 2, 2, []int{2, 2, 1}},
	}
	for _, c := range cases {
		bs := partition(claimsOf(c.cfgs...), c.lanes, c.limit)
		if got := sizes(bs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: batch sizes %v, want %v", c.name, got, c.want)
		}
		seen := make(map[int]bool)
		classBatch := make(map[sim.Config]int)
		for bi, b := range bs {
			for _, cl := range b {
				if seen[cl.idx] {
					t.Errorf("%s: claim %d in two batches", c.name, cl.idx)
				}
				seen[cl.idx] = true
				k := sim.ForkClass(cl.cfg)
				if prev, ok := classBatch[k]; ok && prev != bi && c.limit == 0 {
					t.Errorf("%s: a fork class spans batches %d and %d", c.name, prev, bi)
				}
				classBatch[k] = bi
			}
		}
		if len(seen) != len(c.cfgs) {
			t.Errorf("%s: %d claims batched, want %d", c.name, len(seen), len(c.cfgs))
		}
	}
}

// TestRunManyPanicPoisonsBatch: a lane panic uncaches every claim in its
// batch, propagates to the caller, and leaves the engine consistent for
// retries.
func TestRunManyPanicPoisonsBatch(t *testing.T) {
	var calls atomic.Int64
	e := New(1)
	e.setRunFn(func(cfg sim.Config, p trace.Program) sim.Result {
		calls.Add(1)
		if cfg.Mem.L1I.Params.MissBound == 2 && calls.Load() <= 2 {
			panic("lane boom")
		}
		return sim.Result{Benchmark: p.Name}
	})
	reqs := []Request{
		{Config: cfgAt(0), Prog: prog(t, "applu")},
		{Config: cfgAt(1), Prog: prog(t, "applu")}, // miss-bound 2: panics
		{Config: cfgAt(2), Prog: prog(t, "applu")},
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunMany did not propagate the lane panic")
			}
		}()
		e.RunMany(reqs)
	}()

	s := e.Stats()
	if s.InFlight != 0 {
		t.Fatalf("inFlight = %d after panic", s.InFlight)
	}
	// The poisoned batch uncached all three claims; a retry re-executes and
	// succeeds (the stub only panics on its first pass).
	out := e.RunMany(reqs)
	for i := range out {
		if out[i].Benchmark != "applu" {
			t.Fatalf("retry out[%d] = %+v", i, out[i])
		}
	}
	if s = e.Stats(); s.Entries != 3 {
		t.Fatalf("entries = %d after retry, want 3", s.Entries)
	}
}

// TestRunManyStoreBypassSharesDecode pins the engine's accounting on the
// generator-fed lane path: with the store's budget at zero, one batch of N
// claims generates its stream once and is credited N−1 decode passes saved,
// exactly as on the replay path — while per-request hit/dedup accounting
// (including an in-call duplicate joining mid-batch) is unchanged and every
// result equals the warm-store sim.Run of its configuration.
func TestRunManyStoreBypassSharesDecode(t *testing.T) {
	st := trace.SharedStore()
	st.SetBudget(0)
	defer st.SetBudget(trace.DefaultStoreBudget)

	p := prog(t, "applu")
	e := New(1) // one worker and one group: the whole group is one batch
	reqs := []Request{
		{Config: cfgAt(0), Prog: p},
		{Config: cfgAt(1), Prog: p},
		{Config: cfgAt(2), Prog: p},
		{Config: cfgAt(1), Prog: p}, // in-call duplicate joins mid-batch
	}
	before := sim.ReadLaneStats()
	out := e.RunMany(reqs)
	after := sim.ReadLaneStats()
	if !reflect.DeepEqual(out[1], out[3]) {
		t.Error("in-call duplicate diverges from its claim's result")
	}

	s := e.Stats()
	if s.Lanes.Batches != 1 {
		t.Errorf("batches = %d, want 1", s.Lanes.Batches)
	}
	if s.Lanes.Lanes != 3 {
		t.Errorf("lanes = %d, want 3 (duplicate must not be double-counted)", s.Lanes.Lanes)
	}
	if s.Lanes.DecodeSaved != 2 {
		t.Errorf("DecodeSaved = %d on the generator-fed batch, want 2", s.Lanes.DecodeSaved)
	}
	if s.Misses != 3 || s.Deduped != 1 {
		t.Errorf("misses/deduped = %d/%d, want 3/1", s.Misses, s.Deduped)
	}
	if d := after.Fallbacks - before.Fallbacks; d != 3 {
		t.Errorf("executor fallbacks advanced by %d, want 3", d)
	}

	st.SetBudget(trace.DefaultStoreBudget)
	if st.Replay(p, quickInstrs) == nil {
		t.Fatal("warm store did not record the stream")
	}
	for i, c := range []sim.Config{cfgAt(0), cfgAt(1), cfgAt(2), cfgAt(1)} {
		if want := sim.Run(c, p); !reflect.DeepEqual(out[i], want) {
			t.Errorf("bypass out[%d] diverges from the warm-store run", i)
		}
	}
}

// TestRunManyMatchesRun runs a small real batch and checks bit-identical
// results against the solo engine path.
func TestRunManyMatchesRun(t *testing.T) {
	p := prog(t, "applu")
	cfgs := []sim.Config{cfgAt(0), cfgAt(1), cfgAt(2)}
	reqs := make([]Request, len(cfgs))
	for i, c := range cfgs {
		reqs[i] = Request{Config: c, Prog: p}
	}
	batched := New(0).RunMany(reqs)
	for i, c := range cfgs {
		solo := New(0).Run(c, p)
		if !reflect.DeepEqual(batched[i], solo) {
			t.Fatalf("lane %d diverges from solo engine run", i)
		}
	}
}
