package sim

// Property tests of fork classes: lanes that differ only in the L1
// i-cache's miss-bound and size-bound share one stepped lane until their
// resize decisions differ, and every lane must still equal its solo run.

import (
	"fmt"
	"reflect"
	"testing"

	"dricache/internal/dri"
	"dricache/internal/trace"
)

// forkGrid is the Figure 3 QuickSpace grid (miss-bounds 2, 8, 32 ×
// interval/1000, size-bounds 1K to 64K) built from base parameters p, plus
// the conventional baseline.
func forkGrid(n uint64, p dri.Params) []Config {
	base := p.SenseInterval / 1000
	cfgs := []Config{Default(Conventional64K(), n)}
	for _, mb := range []uint64{2 * base, 8 * base, 32 * base} {
		for _, sb := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
			q := p
			q.MissBound, q.SizeBoundBytes = mb, sb
			cfgs = append(cfgs, Default(DRI64K(q), n))
		}
	}
	return cfgs
}

// checkLanesMatchSolo runs cfgs as one lane batch and each alone, and
// requires every lane to be reflect.DeepEqual to its solo run.
func checkLanesMatchSolo(t *testing.T, cfgs []Config, prog trace.Program) {
	t.Helper()
	got := RunLanes(cfgs, prog)
	for i, c := range cfgs {
		if solo := Run(c, prog); !reflect.DeepEqual(got[i], solo) {
			t.Errorf("%s lane %d (%+v) diverges from its solo run:\n  lane %+v\n  solo %+v",
				prog.Name, i, c.Mem.L1I.Params, got[i], solo)
		}
	}
}

// TestRunLanesForkMatchesSolo is the fork executor's acceptance property:
// over every benchmark, the Figure 3 grid plus its baseline — one fork
// class of twelve members and one solo lane — with timelines off and on,
// every lane is bit-identical to its solo run. It also requires the grid
// to fork and to step fewer instructions than it simulates. The runs are
// shortened to 400K instructions with 20K-instruction intervals, keeping
// QuickScale's twenty decisions per run.
func TestRunLanesForkMatchesSolo(t *testing.T) {
	benches := trace.Benchmarks()
	if testing.Short() {
		benches = benches[:3]
	}
	const n, iv = 400_000, 20_000
	var simulated uint64
	before := ReadLaneStats()
	t.Run("grid", func(t *testing.T) {
		for _, tl := range []bool{false, true} {
			cfgs := forkGrid(n, dri.DefaultParams(iv))
			for i := range cfgs {
				cfgs[i].Timeline.Enabled = tl
			}
			for _, b := range benches {
				simulated += uint64(len(cfgs)) * n
				t.Run(fmt.Sprintf("%s/timeline=%v", b.Name, tl), func(t *testing.T) {
					t.Parallel()
					checkLanesMatchSolo(t, cfgs, b)
				})
			}
		}
	})
	after := ReadLaneStats()
	forks, stepped := after.Forks-before.Forks, after.SteppedInstructions-before.SteppedInstructions
	if forks == 0 {
		t.Error("the Figure 3 grid never forked")
	}
	if stepped >= simulated {
		t.Errorf("stepped %d instructions for %d simulated: the fork class shared nothing", stepped, simulated)
	}
	t.Logf("forks %d, stepped/simulated %.3f", forks, float64(stepped)/float64(simulated))
}

// TestRunLanesForkTargetedClasses covers the controller modes whose
// decisions carry state beyond the size: throttling (a low saturation so
// it trips), the dynamic miss-bound, way resizing, flush-on-resize, and a
// resizing L2 with equal parameters in every member. A sense interval
// shorter than one tick keeps its lanes apart (a tick could carry two
// decisions) and must match too.
func TestRunLanesForkTargetedClasses(t *testing.T) {
	const n, iv = 600_000, 30_000
	grid := func(p dri.Params, assoc int, mbs []uint64, sbs []int) []Config {
		var cfgs []Config
		for _, mb := range mbs {
			for _, sb := range sbs {
				q := p
				q.MissBound, q.SizeBoundBytes = mb, sb
				c := DRI64K(q)
				c.Assoc = assoc
				cfgs = append(cfgs, Default(c, n))
			}
		}
		return cfgs
	}
	base := dri.DefaultParams(iv)
	throttle := base
	throttle.ThrottleSaturation, throttle.ThrottleIntervals = 2, 3
	auto := base
	auto.AutoMissBoundFactor = 4
	ways := base
	ways.ResizeWays = true
	flush := base
	flush.FlushOnResize = true
	tiny := base
	tiny.SenseInterval = 32
	withL2 := grid(base, 1, []uint64{30, 120, 480}, []int{1 << 10, 8 << 10})
	for i := range withL2 {
		withL2[i] = withL2[i].WithL2(DRIL2(l2Params(2000, 64<<10)))
	}
	cases := []struct {
		name      string
		cfgs      []Config
		wantForks bool
	}{
		{"throttle", grid(throttle, 1, []uint64{20, 60, 120, 240}, []int{1 << 10, 4 << 10}), true},
		{"auto", grid(auto, 1, []uint64{1, 1000}, []int{1 << 10, 4 << 10, 16 << 10}), true},
		{"ways", grid(ways, 4, []uint64{30, 120, 480}, []int{16 << 10, 32 << 10}), true},
		{"flush", grid(flush, 1, []uint64{30, 120, 480}, []int{1 << 10, 16 << 10}), true},
		{"l2", withL2, true},
		{"tick-longer-than-interval", grid(tiny, 1, []uint64{0, 1}, []int{1 << 10, 2 << 10}), false},
	}
	progs := []trace.Program{mustBench(t, "gcc"), mustBench(t, "hydro2d"), mustBench(t, "applu")}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := ReadLaneStats()
			for _, p := range progs {
				checkLanesMatchSolo(t, tc.cfgs, p)
			}
			forks := ReadLaneStats().Forks - before.Forks
			if tc.wantForks && forks == 0 {
				t.Error("class never forked; the case does not exercise a split")
			}
			if !tc.wantForks && forks != 0 {
				t.Errorf("%d forks among lanes that must run alone", forks)
			}
		})
	}
	// The throttle case must actually trip the throttle somewhere, or it
	// does not cover the blocked-downsize outcome.
	trips := uint64(0)
	for _, c := range cases[0].cfgs {
		trips += Run(c, progs[0]).ICache.ThrottleTrips
	}
	if trips == 0 {
		t.Error("throttle case never tripped the throttle")
	}
}
