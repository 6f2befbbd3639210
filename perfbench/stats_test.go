package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 100}, {19, 100}, {20, 50}, {100, 90}, {500, 98}, {1000, 99}, {5000, 99},
	} {
		if got := tailRank(c.n, 99); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailRank(%d, 99) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 37, 100, 250, 999, 1000, 4000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		v, _ := tail(xs, 99)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %d samples beyond the tail value %g", n, beyond, v)
		}
		if n >= 1000 && beyond > n/100 {
			t.Errorf("n=%d: p99 leaves %d beyond", n, beyond)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g", got)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

func TestPoissonArrivals(t *testing.T) {
	const rate, d = 200.0, 20 * time.Second
	a := poissonArrivals(newRand(7, 3), rate, d)
	b := poissonArrivals(newRand(7, 3), rate, d)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different arrivals")
	}
	if c := poissonArrivals(newRand(8, 3), rate, d); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same arrivals")
	}
	want := rate * d.Seconds()
	if n := float64(len(a)); math.Abs(n-want) > 4*math.Sqrt(want) {
		t.Errorf("%g arrivals, want %g ± 4σ", n, want)
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= d {
		t.Error("arrivals not sorted inside [0, d)")
	}
	// Exponential gaps: mean 1/rate, and about e^-1 of gaps exceed it.
	over := 0
	for i := 1; i < len(a); i++ {
		if (a[i] - a[i-1]).Seconds() > 1/rate {
			over++
		}
	}
	if share := float64(over) / float64(len(a)-1); math.Abs(share-math.Exp(-1)) > 0.03 {
		t.Errorf("share of gaps above the mean %.3f, want %.3f", share, math.Exp(-1))
	}
}

func TestZipfDraw(t *testing.T) {
	const n, draws = 240, 200_000
	z := newZipf(n, 1.0)
	r := newRand(1, 2)
	counts := make([]int, n)
	for range draws {
		counts[z.draw(r)]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	for _, k := range []int{0, 1, 9, 99} {
		want := draws / (float64(k+1) * h)
		if got := float64(counts[k]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rank %d drawn %g times, want %g", k, got, want)
		}
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Error("frequencies do not fall with rank")
	}
}

func TestFreshKeysStratified(t *testing.T) {
	lg := newLoadgen(nil, nil, newRand(3, 3))
	fresh := 0
	for i := range 10 * freshEvery {
		if lg.nextFresh() {
			fresh++
		}
		if (i+1)%freshEvery == 0 && fresh != (i+1)/freshEvery {
			t.Fatalf("after %d arrivals %d fresh keys, want %d", i+1, fresh, (i+1)/freshEvery)
		}
	}
}

func TestUniverseDeterministic(t *testing.T) {
	a, b := newUniverse(5), newUniverse(5)
	ra, rb := newRand(5, 3), newRand(5, 3)
	for i := range 500 {
		oa, ob := a.draw(ra, i%freshEvery == 0), b.draw(rb, i%freshEvery == 0)
		if oa.key != ob.key {
			t.Fatalf("draw %d: %s vs %s", i, oa.key, ob.key)
		}
	}
	if newUniverse(6).compares[0].key == a.compares[0].key && newUniverse(7).compares[0].key == a.compares[0].key {
		t.Error("the Zipf ranking does not depend on the seed")
	}
}

func TestMaxRateFromLadder(t *testing.T) {
	step := func(rate, lat float64) *phaseResult {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = lat
		}
		return &phaseResult{rate: rate, lat: map[string][]float64{"compare": xs}}
	}
	lim := float64(p99LimitMS)
	steps := []*phaseResult{step(400, lim/4), step(500, lim/4), step(625, 3*lim), step(530, lim/2), step(562, 3*lim/2)}
	// Highest pass 530 (half the limit), lowest failure above it 562 (1.5x
	// the limit): the limit is crossed halfway.
	want := 530 + 0.5*(562-530)
	if got := maxRateFromLadder(steps); math.Abs(got-want) > 1e-9 {
		t.Errorf("max rate %g, want %g", got, want)
	}
	if got := maxRateFromLadder([]*phaseResult{step(400, 4*lim)}); got != 200 {
		t.Errorf("no passing step: %g, want 200", got)
	}
}

func TestBimodal(t *testing.T) {
	if bimodal([]float64{5.9, 6.1, 6.0}) {
		t.Error("steady allocations flagged bimodal")
	}
	if !bimodal([]float64{5.9, 20, 6.0}) {
		t.Error("a 3x allocation split not flagged")
	}
}
