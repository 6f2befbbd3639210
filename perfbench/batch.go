package main

// The batch workloads: sweep (the paper's Figure 3 search plus the
// six-policy shoot-out, warm replay store) and bypass (the shoot-out with
// the replay store disabled, so every simulation regenerates its stream and
// runs the sequential generic pipeline).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dricache/internal/bpred"
	"dricache/internal/cpu"
	"dricache/internal/dri"
	"dricache/internal/engine"
	"dricache/internal/exp"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/policy"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

// coreSet is one benchmark per SPEC class: the single-benchmark requests
// of the low-load latency phase.
var coreSet = []string{"applu", "fpppp", "gcc"}

// passResult is the output of one study pass.
type passResult struct {
	fig3   []exp.Fig3Row // nil on bypass
	points []exp.PolicyPoint
}

// passStats is the host cost of one timed pass.
type passStats struct {
	wall    time.Duration
	sims    uint64
	allocMB float64
	gcs     uint32
	pauseMS float64
	cpuS    float64
	calib   float64 // kernel iterations per CPU second around the pass
}

type batch struct {
	cfg    runConfig
	bypass bool
	scale  exp.Scale
	progs  []trace.Program
	rng    *rand.Rand
	w      io.Writer
}

func runBatch(cfg runConfig, bypass bool, w io.Writer, rep *report) {
	b := &batch{cfg: cfg, bypass: bypass, scale: exp.QuickScale(), progs: trace.Benchmarks(),
		rng: newRand(cfg.seed, 1), w: w}

	// Set-up, repeated; the median is setup_s. A process start (bypass)
	// takes about two milliseconds, so it is sampled before the studies and
	// again after every timed pass: one burst of host load then moves a few
	// samples, not all of them.
	var setups []float64
	probe := func() {
		for range 3 {
			s, err := probeStart()
			if err != nil {
				rep.fail("process start probe: %v", err)
				continue
			}
			setups = append(setups, s)
		}
	}
	if bypass {
		trace.SharedStore().SetBudget(0)
		probe()
	} else {
		for range 5 {
			setups = append(setups, b.record())
		}
	}

	// Low load: single-benchmark studies, one at a time, on a fresh engine.
	var lowMS []float64
	lowOut := make(map[string][]passResult)
	order := slices.Concat(coreSet, coreSet, coreSet)
	b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	runtime.GC() // untimed, as before each timed pass (max_rss_mb)
	start := time.Now()
	for _, name := range order {
		p, _ := trace.ByName(name)
		t := time.Now()
		res, _ := b.pass([]trace.Program{p})
		lowMS = append(lowMS, ms(time.Since(t)))
		lowOut[name] = append(lowOut[name], res)
	}

	// High load: whole-suite passes until the run's time is spent.
	var (
		stats []passStats
		last  passResult
	)
	calib := calibrate(runtime.GOMAXPROCS(0))
	for len(stats) < 3 || time.Since(start) < cfg.seconds {
		res, st := b.timedPass()
		after := calibrate(runtime.GOMAXPROCS(0))
		st.calib, calib = (calib+after)/2, after
		stats = append(stats, st)
		if bypass {
			probe()
		}
		b.checkPass(rep, res)
		last = res
	}
	for name, runs := range lowOut {
		for _, res := range runs {
			rep.check(benchFingerprint(res, name) == benchFingerprint(last, name),
				"single-benchmark study of %s differs from the whole-suite pass", name)
		}
	}

	rep.set("setup_s", median(setups))
	rep.set("trace.record_s", 0)
	if !bypass {
		rep.set("trace.record_s", median(setups))
	}
	fmt.Fprintf(w, "setup: %s\n", fmtSeconds(setups))

	// The rates are per CPU second of this process: time its threads
	// waited for a host CPU (steal, neighbours' load) and the pass's
	// makespan over the workers do not count, only the work done.
	var wallMS, cpuRates, refRates, calibNS, allocs, gcs, pauses, cpus []float64
	for _, st := range stats {
		cpus = append(cpus, st.cpuS)
		wallMS = append(wallMS, ms(st.wall))
		minstr := float64(st.sims*b.scale.Instructions) / 1e6
		cpuRates = append(cpuRates, minstr/st.cpuS)
		refRates = append(refRates, minstr/refSeconds(st.cpuS, st.calib))
		calibNS = append(calibNS, 1e9/st.calib)
		allocs = append(allocs, st.allocMB)
		gcs = append(gcs, float64(st.gcs))
		pauses = append(pauses, st.pauseMS)
	}
	rep.set("sim_minstr_per_ref_s", median(refRates))
	rep.set("sim.minstr_per_cpu_s", median(cpuRates))
	rep.set("calib.ns_per_iter", median(calibNS))
	p99, lvl := tail(wallMS, 99)
	rep.set("exp.pass_p50_ms", median(wallMS))
	rep.set("exp.pass_p99_ms", p99)
	lp99, llvl := tail(lowMS, 99)
	rep.set("exp.study_p50_ms", median(lowMS))
	rep.set("exp.study_p99_ms", lp99)
	rep.set("paper_ed_gap", paperGap(last, b.bypass))
	fmt.Fprintf(w, "passes: %d, wall %s ms (tail p%.1f of %d), low-load studies %s ms (tail p%.1f of %d)\n",
		len(stats), fmtFloats(wallMS), lvl, len(wallMS), fmtFloats(lowMS), llvl, len(lowMS))
	fmt.Fprintf(w, "per-pass CPU s %s, Minstr per CPU s %s, kernel ns/iter %s, Minstr per reference s %s\n",
		fmtFloats(cpus), fmtFloats(cpuRates), fmtFloats(calibNS), fmtFloats(refRates))
	fmt.Fprintf(w, "per-pass alloc MB %s, GCs %s, GC pause ms %s; bimodal allocation: %v\n",
		fmtFloats(allocs), fmtFloats(gcs), fmtFloats(pauses), bimodal(allocs))
	rep.set("runtime.alloc_mb_per_pass", median(allocs))
	rep.set("runtime.gc_per_pass", median(gcs))
	rep.set("runtime.gc_pause_ms", median(pauses))
	rep.set("runtime.alloc_bimodal", boolf(bimodal(allocs)))
	b.fingerprints(rep, last)
	if cfg.traced {
		b.costTable(rep, median(wallMS))
	}
	rep.set("max_rss_mb", maxRSSMB(os.Getpid()))
	zeroServeLayers(rep)
}

// record empties the replay store and records every benchmark's stream at
// the study's budget (GOMAXPROCS at a time), returning the seconds taken.
func (b *batch) record() float64 {
	st := trace.SharedStore()
	st.Reset()
	// Collect the previous repeat's recordings first: a user records once,
	// so max_rss_mb must not depend on when the GC ran between repeats.
	runtime.GC()
	t := time.Now()
	parallel(len(b.progs), func(i int) { st.Replay(b.progs[i], b.scale.Instructions) })
	return time.Since(t).Seconds()
}

// pass runs one study over progs on a fresh engine: the Figure 3 search
// (sweep only) and the six-policy shoot-out. It also returns the engine's
// counters.
func (b *batch) pass(progs []trace.Program) (passResult, engine.Stats) {
	r := exp.NewRunnerOn(engine.New(0), b.scale)
	var res passResult
	if !b.bypass {
		res.fig3 = r.Figure3(exp.QuickSpace(b.scale), progs)
	}
	res.points = r.PolicySweep(progs, r.StandardPolicyChoices())
	return res, r.Engine().Stats()
}

// timedPass runs one whole-suite pass in a seeded benchmark order.
func (b *batch) timedPass() (passResult, passStats) {
	progs := append([]trace.Program(nil), b.progs...)
	b.rng.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	// Collect the earlier work's garbage first, untimed, so that
	// max_rss_mb is one pass on top of the warm store, not a function of
	// how many passes the run's time allowed.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := procCPUSeconds(os.Getpid())
	t := time.Now()
	res, est := b.pass(progs)
	wall := time.Since(t)
	c1 := procCPUSeconds(os.Getpid())
	runtime.ReadMemStats(&m1)
	return res, passStats{
		cpuS:    c1 - c0,
		wall:    wall,
		sims:    est.Misses,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcs:     m1.NumGC - m0.NumGC,
		pauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
}

// checkPass compares a pass's outputs with the pinned fingerprints.
func (b *batch) checkPass(rep *report, res passResult) {
	if !b.bypass {
		got := fig3Fingerprint(res.fig3)
		rep.check(got == pinnedFig3, "Figure 3 fingerprint %s, want %s", got, pinnedFig3)
	}
	got := policyFingerprint(res.points)
	what := "shoot-out"
	if b.bypass {
		what = "generator-path shoot-out (must equal the replay path)"
	}
	rep.check(got == pinnedPolicy, "%s fingerprint %s, want %s", what, got, pinnedPolicy)
}

// fig3Fingerprint hashes every Figure 3 pick in benchmark order.
func fig3Fingerprint(rows []exp.Fig3Row) string {
	var sb strings.Builder
	rows = append([]exp.Fig3Row(nil), rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Bench < rows[j].Bench })
	for _, r := range rows {
		for _, p := range []exp.Pick{r.Constrained, r.Unconstrained} {
			fmt.Fprintf(&sb, "%s %d %d %s\n", r.Bench, p.MissBound, p.SizeBound, cmpLine(p.Cmp))
		}
	}
	return hash(sb.String())
}

// policyFingerprint hashes every shoot-out point in (benchmark, policy)
// order.
func policyFingerprint(points []exp.PolicyPoint) string {
	var sb strings.Builder
	for _, p := range sortedPoints(points) {
		fmt.Fprintf(&sb, "%s %s %s\n", p.Bench, p.Policy, cmpLine(p.Cmp))
	}
	return hash(sb.String())
}

// benchFingerprint hashes one benchmark's slice of a pass.
func benchFingerprint(res passResult, bench string) string {
	var rows []exp.Fig3Row
	for _, r := range res.fig3 {
		if r.Bench == bench {
			rows = append(rows, r)
		}
	}
	var pts []exp.PolicyPoint
	for _, p := range res.points {
		if p.Bench == bench {
			pts = append(pts, p)
		}
	}
	return fig3Fingerprint(rows) + policyFingerprint(pts)
}

func cmpLine(c sim.Comparison) string {
	return fmt.Sprintf("%.12g %.12g %d %d %d %d %.12g", c.RelativeED, c.SlowdownPct,
		c.Conv.CPU.Cycles, c.DRI.CPU.Cycles, c.DRI.ICache.Accesses, c.DRI.ICache.Misses, c.DRI.AvgActiveFraction)
}

func hash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

func sortedPoints(points []exp.PolicyPoint) []exp.PolicyPoint {
	out := append([]exp.PolicyPoint(nil), points...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Policy < out[j].Policy
	})
	return out
}

// paperGap is paper_ed_gap: the mean |relative ED − paper Figure 3 ED|
// over the fifteen benchmarks — of the constrained Figure 3 picks on
// sweep, of the shoot-out's DRI points on bypass.
func paperGap(res passResult, bypass bool) float64 {
	eds := make(map[string]float64)
	if bypass {
		for _, p := range res.points {
			if p.Policy == "dri" {
				eds[p.Bench] = p.Cmp.RelativeED
			}
		}
	} else {
		for _, r := range res.fig3 {
			eds[r.Bench] = r.Constrained.Cmp.RelativeED
		}
	}
	return meanGap(eds)
}

func meanGap(eds map[string]float64) float64 {
	if len(eds) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, b := range sortedKeys(eds) { // fixed order: the sum must repeat exactly
		sum += math.Abs(eds[b] - exp.PaperFig3[b].ED)
	}
	return sum / float64(len(eds))
}

// fingerprints sets the simulated fingerprint metrics: sums and means over
// the shoot-out's points (identical on sweep and bypass) plus the Figure 3
// mean on sweep.
func (b *batch) fingerprints(rep *report, res passResult) {
	var instrs, cycles, acc, misses, memoHits, memoAcc uint64
	var driFrac, ed float64
	var nDRI, nED int
	for _, p := range res.points {
		d := p.Cmp.DRI
		instrs += d.CPU.Instructions
		cycles += d.CPU.Cycles
		acc += d.ICache.Accesses
		misses += d.ICache.Misses
		switch p.Policy {
		case "dri":
			driFrac += d.AvgActiveFraction
			nDRI++
		case "waymemo":
			memoHits += d.ICache.MemoHits
			memoAcc += d.ICache.Accesses
		}
		if p.Policy != "conventional" {
			ed += p.Cmp.RelativeED
			nED++
		}
	}
	rep.set("sim.instructions", float64(instrs))
	rep.set("sim.cycles", float64(cycles))
	rep.set("mem.l1i_accesses", float64(acc))
	rep.set("mem.l1i_misses", float64(misses))
	rep.set("dri.avg_active_fraction", driFrac/float64(max(nDRI, 1)))
	rep.set("policy.memo_hit_share", float64(memoHits)/float64(max(memoAcc, 1)))
	rep.set("exp.policy_mean_ed", ed/float64(max(nED, 1)))
	fig3 := 0.0
	for _, r := range res.fig3 {
		fig3 += r.Constrained.Cmp.RelativeED / float64(len(res.fig3))
	}
	rep.set("exp.fig3_mean_ed", fig3)

	if len(res.fig3) > 0 {
		var rows [][]string
		for _, r := range res.fig3 {
			paper := exp.PaperFig3[r.Bench].ED
			rows = append(rows, []string{r.Bench, fmt.Sprintf("%.3f", r.Constrained.Cmp.RelativeED),
				fmt.Sprintf("%.2f", paper), fmt.Sprintf("%+.3f", r.Constrained.Cmp.RelativeED-paper)})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
		table(b.w, "Figure 3 constrained relative ED at quick scale vs the paper",
			[]string{"benchmark", "measured", "paper", "gap"}, rows)
	}
}

// group is the distinct simulations of one engine call on one benchmark:
// what the engine's batch scheduler runs as one lane batch.
type group struct {
	prog trace.Program
	cfgs []sim.Config
}

// studyCalls rebuilds the engine requests of one whole-suite pass — one
// list per Runner.RunAll call, exactly as the Runner submits them — and the
// lane groups the engine forms from them (groups ≥ workers, so every group
// runs whole).
func (b *batch) studyCalls() (calls [][]engine.Request, groups []group) {
	r := exp.NewRunnerOn(engine.New(0), b.scale)
	var taskLists [][]exp.Task
	if !b.bypass {
		var tasks []exp.Task
		space := exp.QuickSpace(b.scale)
		for _, p := range b.progs {
			for _, mb := range space.MissBounds {
				for _, sb := range space.SizeBounds {
					tasks = append(tasks, exp.Task{Prog: p, Config: l1(1, r.Params(mb, sb))})
				}
			}
		}
		taskLists = append(taskLists, tasks)
	}
	var tasks []exp.Task
	for _, p := range b.progs {
		for _, c := range r.StandardPolicyChoices() {
			t := exp.Task{Prog: p, Config: l1(4, c.Params)}
			if c.Policy.Kind != policy.Conventional {
				pol := c.Policy
				t.Policy = &pol
			}
			tasks = append(tasks, t)
		}
	}
	taskLists = append(taskLists, tasks)

	for _, tl := range taskLists {
		var reqs []engine.Request
		seen := make(map[engine.Key]bool)
		byProg := make(map[string]*group)
		var order []string
		add := func(cfg sim.Config, p trace.Program) {
			reqs = append(reqs, engine.Request{Config: cfg, Prog: p})
			k := engine.KeyFor(cfg, p)
			if seen[k] {
				return
			}
			seen[k] = true
			g := byProg[p.Name]
			if g == nil {
				g = &group{prog: p}
				byProg[p.Name] = g
				order = append(order, p.Name)
			}
			g.cfgs = append(g.cfgs, cfg)
		}
		for _, t := range tl {
			cfg := t.SimConfig(b.scale.Instructions)
			add(sim.BaselineSimConfig(cfg), t.Prog)
			add(cfg, t.Prog)
		}
		calls = append(calls, reqs)
		for _, name := range order {
			groups = append(groups, *byProg[name])
		}
	}
	return calls, groups
}

func l1(assoc int, p dri.Params) dri.Config {
	return dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: assoc, AddrBits: 32, Params: p}
}

// costTable is the traced run: the whole-suite pass again with the layer
// counters sampled, then the same work replayed one layer down at a time,
// so each layer's self time is the difference between adjacent levels.
// Every level is measured costRounds times, interleaved, and its median
// used. Rows below the engine are busy times summed over workers and
// scaled onto the lanes' wall clock; the rows sum to the traced pass, with
// what the differences cannot attribute (noise between levels) in
// remainder.
func (b *batch) costTable(rep *report, untracedMS float64) {
	const costRounds = 2
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	calls, groups := b.studyCalls()
	var (
		est                          engine.Stats
		eng0, eng1                   sim.LaneStats
		st0, st1                     trace.StoreStats
		tPass, tEngine, tLanes       []float64
		simBusy, cpuBusy, decodeBusy []float64
		laneInstrs, decodedInstrs    uint64
	)
	for round := range costRounds {
		// exp: the pass through the public study API.
		l0, s0 := sim.ReadLaneStats(), trace.SharedStore().Stats()
		t := time.Now()
		res, e := b.pass(b.progs)
		tPass = append(tPass, time.Since(t).Seconds())
		if round == 0 {
			est, eng0, eng1, st0, st1 = e, l0, sim.ReadLaneStats(), s0, trace.SharedStore().Stats()
		}
		b.checkPass(rep, res)

		// engine: the same requests straight into RunManyCtx.
		eng := engine.New(0)
		t = time.Now()
		engOut := make([][]sim.Result, len(calls))
		for i, reqs := range calls {
			out, err := eng.RunManyCtx(ctx, reqs)
			rep.check(err == nil, "engine replay: %v", err)
			engOut[i] = out
		}
		tEngine = append(tEngine, time.Since(t).Seconds())
		cycles := make(map[engine.Key]uint64)
		for i, reqs := range calls {
			for j, q := range reqs {
				cycles[engine.KeyFor(q.Config, q.Prog)] = engOut[i][j].CPU.Cycles
			}
		}

		// sim: the engine's lane batches straight into sim.RunLanesCtx.
		var mu sync.Mutex
		var simB, cpuB, decB time.Duration
		t = time.Now()
		parallel(len(groups), func(i int) {
			g := groups[i]
			out, err := sim.RunLanesCtx(ctx, g.cfgs, g.prog)
			mu.Lock()
			defer mu.Unlock()
			for k, c := range g.cfgs {
				rep.check(err == nil && out[k].CPU.Cycles == cycles[engine.KeyFor(c, g.prog)],
					"%s: lane batch result differs from the engine's (%v)", g.prog.Name, err)
			}
		})
		tLanes = append(tLanes, time.Since(t).Seconds())

		// Below the lanes' wall clock the levels are split group by group:
		// each worker times, back to back on one lane group, sim.RunLanesCtx,
		// the bare pipelines (the lane executor over pre-built pipelines, or
		// on bypass the generic pipeline over generator streams; set-up
		// untimed) and one replay decode drained. Adjacent timings share the
		// host's momentary speed, so their differences stay meaningful.
		laneInstrs, decodedInstrs = 0, 0
		parallel(len(groups), func(i int) {
			g := groups[i]
			s := time.Now()
			if _, err := sim.RunLanesCtx(ctx, g.cfgs, g.prog); err != nil {
				panic(err)
			}
			dSim := time.Since(s)
			dCPU := b.cpuRun(g)
			var dDec time.Duration
			n := 0
			if !b.bypass {
				cur := trace.SharedStore().Replay(g.prog, b.scale.Instructions).Cursor()
				buf := make([]isa.DecodedInstr, 256)
				s := time.Now()
				for k := cur.NextChunk(buf); k > 0; k = cur.NextChunk(buf) {
					n += k
				}
				dDec = time.Since(s)
			}
			mu.Lock()
			simB += dSim
			cpuB += dCPU
			decB += dDec
			laneInstrs += uint64(len(g.cfgs)) * b.scale.Instructions
			decodedInstrs += uint64(n)
			mu.Unlock()
		})
		simBusy = append(simBusy, simB.Seconds())
		cpuBusy = append(cpuBusy, cpuB.Seconds())
		decodeBusy = append(decodeBusy, decB.Seconds())
	}
	// generator: every benchmark's stream drained once.
	genNS := genNsPerInstr(b.progs, b.scale.Instructions)

	pass, lanes := median(tPass), median(tLanes)
	simS, cpuS, decS := median(simBusy), median(cpuBusy), median(decodeBusy)
	f := lanes / simS
	var genRow, cpuRow float64
	if b.bypass {
		genRow = genNS * float64(laneInstrs) / 1e9 * f
		cpuRow = cpuS*f - genRow
	} else {
		cpuRow = (cpuS - decS) * f
	}
	rows := []struct {
		name string
		v    float64
	}{
		{"exp.self_s", pass - median(tEngine)},
		{"engine.self_s", median(tEngine) - lanes},
		{"sim.self_s", (simS - cpuS) * f},
		{"isa.decode_s", decS * f},
		{"cpu.self_s", cpuRow},
		{"trace.gen_s", genRow},
	}
	sum := 0.0
	for i := range rows {
		rows[i].v = math.Max(rows[i].v, 0)
		sum += rows[i].v
	}
	rows = append(rows, struct {
		name string
		v    float64
	}{"remainder_s", pass - sum})
	var tab [][]string
	for _, row := range rows {
		rep.set(row.name, row.v)
		tab = append(tab, []string{strings.TrimSuffix(row.name, "_s"), fmt.Sprintf("%.3f", row.v),
			fmt.Sprintf("%5.1f%%", 100*row.v/pass)})
	}
	tab = append(tab, []string{"total (traced pass)", fmt.Sprintf("%.3f", pass), "100.0%"})
	table(b.w, fmt.Sprintf("Time components of one %s pass (s, %d workers, median of %d rounds)",
		b.cfg.workload, workers, costRounds), []string{"layer", "seconds", "share"}, tab)
	overhead := pass - untracedMS/1000
	fmt.Fprintf(b.w, "  tracing overhead: traced pass %.3f s - untraced median %.3f s = %+.3f s\n",
		pass, untracedMS/1000, overhead)

	rep.set("tracing.pass_s", pass)
	rep.set("tracing.overhead_s", overhead)
	rep.set("sim.lanes_s", lanes)
	rep.set("engine.lanes.batches", float64(est.Lanes.Batches))
	rep.set("engine.lanes.per_batch", float64(est.Lanes.Lanes)/float64(max(est.Lanes.Batches, 1)))
	rep.set("engine.lanes.decode_saved", float64(est.Lanes.DecodeSaved))
	rep.set("engine.lanes.fallbacks", float64(eng1.Fallbacks-eng0.Fallbacks))
	rep.set("isa.decode_ns_per_instr", 0)
	rep.set("cpu.lane_ns_per_lane_instr", 0)
	rep.set("sim.generic_ns_per_instr", 0)
	if b.bypass {
		rep.set("sim.generic_ns_per_instr", cpuS*1e9/float64(laneInstrs)-genNS)
	} else {
		rep.set("isa.decode_ns_per_instr", decS*1e9/float64(max(decodedInstrs, 1)))
		rep.set("cpu.lane_ns_per_lane_instr", (cpuS-decS)*1e9/float64(laneInstrs))
	}
	rep.set("trace.gen_ns_per_instr", genNS)
	rep.set("trace.hits", float64(st1.Hits-st0.Hits))
	rep.set("trace.misses", float64(st1.Misses-st0.Misses))
	rep.set("trace.bypasses", float64(st1.Bypasses-st0.Bypasses))
	rep.set("trace.bytes", float64(st1.Bytes))
	rep.set("engine.hit_share", est.HitRate())
	rep.set("engine.misses", float64(est.Misses))
	rep.set("engine.deduped", float64(est.Deduped))
	rep.set("engine.persist_hits", float64(est.PersistHits))
}

// cpuRun times the bare pipeline work of one lane group: the lane
// executor over one replay cursor (decode included), or on bypass the
// generic pipeline over a fresh generator stream per simulation
// (generation included). Pipeline and hierarchy construction is untimed.
func (b *batch) cpuRun(g group) time.Duration {
	n := b.scale.Instructions
	build := func(c sim.Config, bp *bpred.Predictor) *cpu.Pipeline {
		h := mem.New(c.Mem)
		h.Reset() // fault the hierarchy's pages in before the clock starts
		return cpu.New(c.CPU, h, h, bp, h)
	}
	if b.bypass {
		var d time.Duration
		for _, c := range g.cfgs {
			p := build(c, bpred.New(c.Bpred))
			s := time.Now()
			p.Run(g.prog.Stream(n))
			d += time.Since(s)
		}
		return d
	}
	preds := make(map[bpred.Config]*bpred.Predictor)
	pipes := make([]*cpu.Pipeline, len(g.cfgs))
	for i, c := range g.cfgs {
		bp := preds[c.Bpred]
		if bp == nil {
			bp = bpred.New(c.Bpred)
			preds[c.Bpred] = bp
		}
		pipes[i] = build(c, bp)
	}
	cur := trace.SharedStore().Replay(g.prog, n).Cursor()
	s := time.Now()
	cpu.RunLanes(&cur, pipes)
	return time.Since(s)
}

// genNsPerInstr drains every benchmark's generator stream once.
func genNsPerInstr(progs []trace.Program, n uint64) float64 {
	var ins isa.Instr
	t := time.Now()
	for _, p := range progs {
		s := p.Stream(n)
		for s.Next(&ins) {
		}
	}
	return float64(time.Since(t).Nanoseconds()) / float64(uint64(len(progs))*n)
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines.
func parallel(n int, f func(int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}

// probeStart measures one process start: exec of this binary in probe mode
// until it reports that its packages are initialised and the replay store
// is configured.
func probeStart() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-probe-start")
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	buf := make([]byte, 16)
	n, _ := io.ReadAtLeast(out, buf, len("ready"))
	d := time.Since(t).Seconds()
	werr := cmd.Wait()
	if string(buf[:n]) != "ready\n" || werr != nil {
		return 0, fmt.Errorf("probe said %q (%v)", buf[:n], werr)
	}
	return d, nil
}

// probeMain is the child side of probeStart.
func probeMain() {
	trace.SharedStore().SetBudget(0)
	if len(trace.Benchmarks()) == 0 {
		os.Exit(1)
	}
	fmt.Println("ready")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "] s"
}
