package mem

import (
	"reflect"
	"testing"

	"dricache/internal/dri"
	"dricache/internal/policy"
	"dricache/internal/xrand"
)

// snapshot gathers everything a run's result is read from.
type snapshot struct {
	Stats        Stats
	L1I          dri.Stats
	L2           dri.DataStats
	L1IEvents    []dri.ResizeEvent
	L2Events     []dri.ResizeEvent
	L1IResidency map[int]uint64
	L2Residency  map[int]uint64
	L1ILeak      float64
	L2Leak       float64
	L2Policy     policy.Stats
}

func snap(h *Hierarchy, now uint64) snapshot {
	h.Finish(now)
	return snapshot{
		Stats: h.Stats(), L1I: h.ICache().Stats(), L2: h.L2().DataStats(),
		L1IEvents: h.ICache().Events(), L2Events: h.L2().Events(),
		L1IResidency: h.ICache().SizeResidency(), L2Residency: h.L2().SizeResidency(),
		L1ILeak: h.L1ILeakFraction(), L2Leak: h.L2LeakFraction(), L2Policy: h.L2PolicyStats(),
	}
}

// drive replays a seeded mix of fetches, loads, stores and ticks.
func drive(h *Hierarchy, seed uint64, steps int, now *uint64) {
	rng := xrand.New(seed)
	for i := 0; i < steps; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			*now += h.FetchBlock(uint64(rng.Intn(1 << (6 + i/4000%8))))
		case 2:
			*now += h.Load(uint64(rng.Intn(1 << 17)))
		default:
			h.Store(uint64(rng.Intn(1 << 17)))
		}
		*now++
		if i%64 == 63 {
			h.Advance(64, *now)
		}
	}
}

// TestCopyFromContinuesIdentically: a hierarchy made a CopyFrom of another
// mid-run — resizing L1I and L2 and a per-line L2 policy included — ends
// in exactly the state the source reaches over the same remaining
// traffic, and keeps its own configuration.
func TestCopyFromContinuesIdentically(t *testing.T) {
	l1i := conv64K()
	l1i.Params = dri.DefaultParams(2000)
	cfg := DefaultConfig(l1i)
	cfg.L2.Params = dri.Params{Enabled: true, MissBound: 40, SizeBoundBytes: 64 << 10,
		SenseInterval: 2000, Divisibility: 2, ThrottleSaturation: 7, ThrottleIntervals: 10}
	withDecay := DefaultConfig(conv64K())
	withDecay.L2Policy = policy.DefaultDecay(2000)
	for name, c := range map[string]Config{"dri-l1-l2": cfg, "l2-decay": withDecay} {
		t.Run(name, func(t *testing.T) {
			src := New(c)
			var now uint64
			drive(src, 1, 30_000, &now)
			own := c
			own.L1I.Params.MissBound++ // a different threshold, same geometry
			dst := New(own)
			drive(dst, 9, 5_000, new(uint64)) // state the copy must overwrite
			dst.CopyFrom(src)
			if dst.Config() != own {
				t.Fatal("CopyFrom replaced the destination's configuration")
			}
			ref := New(c)
			ref.CopyFrom(src)
			nowRef, nowSrc := now, now
			drive(src, 2, 30_000, &nowSrc)
			drive(ref, 2, 30_000, &nowRef)
			got, want := snap(ref, nowRef), snap(src, nowSrc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("copy diverged from its source:\n  copy %+v\n  src  %+v", got, want)
			}
			if c.L1I.Params.Enabled && (len(want.L1IEvents) == 0 || len(want.L2Events) == 0) {
				t.Fatalf("the drive never resized both levels: %d L1I, %d L2 events", len(want.L1IEvents), len(want.L2Events))
			}
		})
	}
}
