package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"
)

// newRand returns a deterministic generator for one named input stream of
// a seeded run, so adding a stream never shifts the draws of another.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// tailRank is the benchmark's percentile rule: a tail percentile is
// reported at the requested level p only when at least ten samples lie
// beyond it, and otherwise at the highest level that still leaves ten
// beyond. It returns the percentile used. With fewer than twenty samples
// even the median has fewer than ten beyond it, so the rule gives no tail
// and the maximum (100) is used instead.
func tailRank(n int, p float64) float64 {
	if n < 20 {
		return 100
	}
	if limit := 100 * float64(n-10) / float64(n); limit < p {
		return limit
	}
	return p
}

// percentile returns the nearest-rank p-th percentile of xs (0 if empty).
// xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// tail is percentile under the tail rule, also returning the level used.
func tail(xs []float64, p float64) (value, level float64) {
	level = tailRank(len(xs), p)
	return percentile(xs, level), level
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bimodal reports whether per-pass allocation volumes split into two
// clusters: the largest is more than twice the smallest.
func bimodal(xs []float64) bool {
	if len(xs) < 2 {
		return false
	}
	lo, hi := slices.Min(xs), slices.Max(xs)
	return lo > 0 && hi > 2*lo
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range n {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	return min(k, len(z.cdf)-1)
}

// poissonArrivals returns the arrival offsets of a Poisson process of the
// given rate (per second) over [0, d): exponential gaps, open loop.
func poissonArrivals(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	end := d.Seconds()
	for {
		t += r.ExpFloat64() / rate
		if t >= end {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}
