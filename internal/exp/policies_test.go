package exp

import (
	"reflect"
	"strings"
	"testing"

	"dricache/internal/sim"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

func TestPolicySweepGrid(t *testing.T) {
	r := quickRunner()
	progs := picks(t, "applu", "gcc")
	choices := r.StandardPolicyChoices()
	points := r.PolicySweep(progs, choices)

	if want := len(progs) * len(choices); len(points) != want {
		t.Fatalf("points = %d, want %d", len(points), want)
	}
	byCell := map[string]PolicyPoint{}
	for _, p := range points {
		byCell[p.Bench+"/"+p.Policy] = p
	}

	for _, prog := range progs {
		conv := byCell[prog.Name+"/conventional"]
		// The conventional contender is its own baseline: unit energy-delay,
		// zero slowdown.
		if conv.Cmp.RelativeED != 1 || conv.Cmp.SlowdownPct != 0 {
			t.Errorf("%s/conventional: relED %v slow %v, want 1 and 0",
				prog.Name, conv.Cmp.RelativeED, conv.Cmp.SlowdownPct)
		}
		// Every leakage policy must beat conventional leakage on energy and
		// produce a distinct point.
		seen := map[float64]string{}
		for _, pol := range []string{"dri", "decay", "drowsy", "waygate"} {
			p, ok := byCell[prog.Name+"/"+pol]
			if !ok {
				t.Fatalf("missing cell %s/%s", prog.Name, pol)
			}
			if p.Cmp.RelativeEnergy >= 1 {
				t.Errorf("%s/%s: relative energy %v, want < 1", prog.Name, pol, p.Cmp.RelativeEnergy)
			}
			if prev, dup := seen[p.Cmp.RelativeED]; dup {
				t.Errorf("%s: %s and %s coincide at relED %v", prog.Name, pol, prev, p.Cmp.RelativeED)
			}
			seen[p.Cmp.RelativeED] = pol
		}
		// Drowsy preserves state: identical miss counts to the baseline.
		drowsy := byCell[prog.Name+"/drowsy"]
		if drowsy.Cmp.DRI.ICache.Misses != drowsy.Cmp.Conv.ICache.Misses {
			t.Errorf("%s/drowsy: misses %d != conventional %d",
				prog.Name, drowsy.Cmp.DRI.ICache.Misses, drowsy.Cmp.Conv.ICache.Misses)
		}
		// Decay destroys state: strictly more misses.
		decay := byCell[prog.Name+"/decay"]
		if decay.Cmp.DRI.ICache.Misses <= decay.Cmp.Conv.ICache.Misses {
			t.Errorf("%s/decay: misses %d, want > conventional %d",
				prog.Name, decay.Cmp.DRI.ICache.Misses, decay.Cmp.Conv.ICache.Misses)
		}
	}

	best := BestPolicy(points, 100)
	if len(best) != len(progs) {
		t.Fatalf("BestPolicy covered %d benchmarks, want %d", len(best), len(progs))
	}
	for bench, p := range best {
		if p.Cmp.RelativeED > 1 {
			t.Errorf("%s winner %s has relED %v > conventional", bench, p.Policy, p.Cmp.RelativeED)
		}
	}

	grid := FormatPolicies(points)
	for _, col := range []string{"bench", "conventional", "dri", "decay", "drowsy", "waygate"} {
		if !strings.Contains(grid, col) {
			t.Errorf("grid missing column %q:\n%s", col, grid)
		}
	}
	if out := FormatBestPolicies(best); !strings.Contains(out, "winner") {
		t.Errorf("best-policy table malformed:\n%s", out)
	}
}

func TestBestPolicyRespectsSlowdownBound(t *testing.T) {
	pts := []PolicyPoint{
		{Bench: "b", Policy: "fast"},
		{Bench: "b", Policy: "slow"},
	}
	pts[0].Cmp.RelativeED = 0.9
	pts[0].Cmp.SlowdownPct = 1
	pts[1].Cmp.RelativeED = 0.5
	pts[1].Cmp.SlowdownPct = 50
	best := BestPolicy(pts, 2)
	if got := best["b"].Policy; got != "fast" {
		t.Fatalf("winner = %q, want the one inside the slowdown bound", got)
	}
	if len(BestPolicy(pts, 0.5)) != 0 {
		t.Fatal("no policy qualifies under a 0.5%% bound")
	}
}

// TestPolicySweepDRIMatchesPlainDRI pins the adapter property at the sweep
// level: the "dri" contender's comparison must equal running the same DRI
// configuration without any policy selector, bit for bit.
func TestPolicySweepDRIMatchesPlainDRI(t *testing.T) {
	r := quickRunner()
	progs := picks(t, "applu")
	points := r.PolicySweep(progs, r.StandardPolicyChoices())

	var viaPolicy *PolicyPoint
	for i := range points {
		if points[i].Policy == "dri" {
			viaPolicy = &points[i]
		}
	}
	if viaPolicy == nil {
		t.Fatal("sweep has no dri cell")
	}
	iv := r.Scale.SenseInterval
	plain := r.RunAll([]Task{{
		Prog:   progs[0],
		Config: driConfig(64<<10, 4, r.Params(iv/100, 1<<10)),
	}})[0].Cmp

	if got, want := viaPolicy.Cmp.DRI.CPU.Cycles, plain.DRI.CPU.Cycles; got != want {
		t.Errorf("cycles via policy selector = %d, plain = %d", got, want)
	}
	if got, want := viaPolicy.Cmp.DRI.ICache, plain.DRI.ICache; got != want {
		t.Errorf("i-cache stats via policy selector = %+v, plain = %+v", got, want)
	}
	if got, want := viaPolicy.Cmp.RelativeED, plain.RelativeED; got != want {
		t.Errorf("relative ED via policy selector = %v, plain = %v", got, want)
	}
}

// TestGeneratorMatchesReplayPolicySweep is the generator-vs-replay
// equivalence property end to end: the six-policy shoot-out over every
// benchmark, run through the engine with the trace store's budget at zero
// (every lane batch fed by the generator through the chunk adapter), must
// equal the same shoot-out over a warm store point for point — both
// comparisons, every counter, every interval timeline.
func TestGeneratorMatchesReplayPolicySweep(t *testing.T) {
	progs := trace.Benchmarks()
	if testing.Short() {
		progs = progs[:3]
	}
	scale := Scale{
		Instructions:  200_000,
		SenseInterval: 20_000,
		Timeline:      timeline.Config{Enabled: true},
	}
	sweep := func() []PolicyPoint {
		r := NewRunner(scale)
		return r.PolicySweep(progs, r.StandardPolicyChoices())
	}

	st := trace.SharedStore()
	st.SetBudget(0)
	defer st.SetBudget(trace.DefaultStoreBudget)
	fallbacks := sim.ReadLaneStats().Fallbacks
	generated := sweep()
	if sim.ReadLaneStats().Fallbacks == fallbacks {
		t.Fatal("no lane was fed by the generator; the store did not bypass")
	}

	st.SetBudget(trace.DefaultStoreBudget)
	for _, p := range progs {
		if st.Replay(p, scale.Instructions) == nil {
			t.Fatalf("%s: warm store did not record the stream", p.Name)
		}
	}
	replayed := sweep()

	if len(generated) != len(replayed) {
		t.Fatalf("%d generator points vs %d replay points", len(generated), len(replayed))
	}
	for i := range replayed {
		if generated[i].Cmp.DRI.Timeline == nil {
			t.Fatalf("%s/%s: generator-fed point has no timeline", generated[i].Bench, generated[i].Policy)
		}
		if !reflect.DeepEqual(generated[i], replayed[i]) {
			t.Errorf("%s/%s: generator-fed point diverges from the replay point",
				replayed[i].Bench, replayed[i].Policy)
		}
	}
}
