package dri

import (
	"reflect"
	"testing"

	"dricache/internal/xrand"
)

// outcomeEffect checks that the interval end just taken by c (before:
// stats and size before it) did what o says.
func outcomeEffect(t *testing.T, label string, o Outcome, before Stats, beforeBytes int, c *Cache) {
	t.Helper()
	after := c.Stats()
	want := before
	want.Intervals++
	size := c.ActiveBytes()
	switch o {
	case OutcomeUpsize:
		want.Upsizes++
		if size <= beforeBytes {
			t.Fatalf("%s: outcome upsize but size %d -> %d", label, beforeBytes, size)
		}
	case OutcomeDownsize:
		want.Downsizes++
		if size >= beforeBytes {
			t.Fatalf("%s: outcome downsize but size %d -> %d", label, beforeBytes, size)
		}
	case OutcomeFloor:
		want.SizeBoundHits++
	case OutcomeBlocked:
		want.BlockedDownsizes++
	}
	if o != OutcomeUpsize && o != OutcomeDownsize && size != beforeBytes {
		t.Fatalf("%s: outcome %d but size %d -> %d", label, o, beforeBytes, size)
	}
	// A resize may trip the throttle; everything else must match exactly.
	want.ThrottleTrips = after.ThrottleTrips
	if after != want {
		t.Fatalf("%s: outcome %d, stats\n  got  %+v\n  want %+v", label, o, after, want)
	}
}

// TestOutcomePredictsEndInterval drives caches with random parameters —
// set and way resizing, throttling, dynamic bounds, flush-on-resize —
// through phased working sets, and at every interval end asks Outcome
// about the cache's own parameters and about alternatives differing in
// miss-bound and size-bound. The own outcome must be what the interval end
// then does; for each alternative, a cache with those parameters made a
// CopyFrom of the current state must do what its outcome says, any two
// that hold must end in one state apart from the held counters, and a
// copy with the same parameters must take the same interval end as the
// cache it was copied from.
func TestOutcomePredictsEndInterval(t *testing.T) {
	rng := xrand.New(13)
	seen := map[Outcome]int{}
	for trial := 0; trial < 60; trial++ {
		assoc := 1 << rng.Intn(3)
		p := DefaultParams(2000)
		p.ThrottleSaturation = 1 + rng.Intn(3)
		p.ThrottleIntervals = 1 + rng.Intn(4)
		p.FlushOnResize = rng.Bool(0.2)
		p.ResizeWays = assoc > 1 && rng.Bool(0.3)
		if rng.Bool(0.25) {
			p.AutoMissBoundFactor = 1 + 8*rng.Float64()
		}
		cfg := Config{SizeBytes: 16 << 10, BlockBytes: 32, Assoc: assoc, AddrBits: 32}
		sizeBound := func() int {
			if p.ResizeWays {
				return (1 + rng.Intn(assoc)) * cfg.Sets() * cfg.BlockBytes
			}
			return cfg.BlockBytes * assoc << rng.Intn(6)
		}
		variant := func() Config {
			c := cfg
			c.Params = p
			c.Params.MissBound = uint64(rng.Intn(300))
			c.Params.SizeBoundBytes = sizeBound()
			return c
		}
		own := variant()
		c := New(own)
		alts := []Config{variant(), variant(), variant()}
		var cycles uint64
		for ival := 0; ival < 40; ival++ {
			footprint := uint64(64 << rng.Intn(9)) // 64 B .. 16 KiB of code
			for i := 0; i < 2000; i++ {
				c.AccessBlock(uint64(rng.Intn(int(footprint/32))) + uint64(ival%3)*4096)
			}
			cycles += 1000 + uint64(rng.Intn(3000))
			twin := New(own)
			twin.CopyFrom(c)
			var held *Cache
			for _, alt := range alts {
				o := c.Outcome(alt.Params)
				seen[o]++
				a := New(alt)
				a.CopyFrom(c)
				before, beforeBytes := a.Stats(), a.ActiveBytes()
				a.Advance(2000, cycles)
				outcomeEffect(t, "alternative", o, before, beforeBytes, a)
				if o.Holds() {
					if held != nil {
						sameHeldState(t, held, a)
					}
					held = a
				}
			}
			o := c.Outcome(own.Params)
			before, beforeBytes := c.Stats(), c.ActiveBytes()
			c.Advance(2000, cycles)
			outcomeEffect(t, "own", o, before, beforeBytes, c)
			seen[o]++
			// A same-parameter copy carries on exactly as the cache does.
			twin.Advance(2000, cycles)
			if twin.Stats() != c.Stats() || twin.ActiveBytes() != c.ActiveBytes() ||
				!reflect.DeepEqual(twin.Events(), c.Events()) ||
				!reflect.DeepEqual(twin.SizeResidency(), c.SizeResidency()) {
				t.Fatalf("trial %d interval %d: a copy diverged from its source", trial, ival)
			}
		}
	}
	for o := OutcomeHold; o <= OutcomeNoReference; o++ {
		if seen[o] == 0 {
			t.Errorf("outcome %d never occurred; the drive does not cover it", o)
		}
	}
}

// sameHeldState requires two caches that held the size at one decision,
// from one state, to be in the same state apart from their configurations
// and the two held counters.
func sameHeldState(t *testing.T, a, b *Cache) {
	t.Helper()
	x, y := *a, *b
	x.cfg, x.minSets, x.minWays = y.cfg, y.minSets, y.minWays
	x.stats.SizeBoundHits, x.stats.BlockedDownsizes = y.stats.SizeBoundHits, y.stats.BlockedDownsizes
	if !reflect.DeepEqual(x, y) {
		t.Fatalf("two holding outcomes left different states:\n  %+v\n  %+v", x.stats, y.stats)
	}
}

// TestCopyFromKeepsOwnConfig checks that a copy keeps the destination's
// parameters, so its later decisions and its size-bound follow them.
func TestCopyFromKeepsOwnConfig(t *testing.T) {
	src := New(cfg64K(1000, 10))
	loop(src, 64<<10, 5000)
	src.Advance(1000, 1000)
	dstCfg := cfg64K(1000, 1<<20) // never upsizes, always wants down
	dstCfg.Params.SizeBoundBytes = 32 << 10
	dst := New(dstCfg)
	dst.CopyFrom(src)
	if dst.Config() != dstCfg {
		t.Fatalf("CopyFrom replaced the configuration: %+v", dst.Config())
	}
	if !reflect.DeepEqual(dst.Stats(), src.Stats()) || dst.ActiveBytes() != src.ActiveBytes() {
		t.Fatal("CopyFrom did not copy the state")
	}
	for i := 0; i < 10; i++ {
		dst.Advance(1000, uint64(2000+1000*i))
	}
	if got := dst.ActiveBytes(); got != 32<<10 {
		t.Fatalf("copy settled at %d bytes, want its own 32K size-bound", got)
	}
}
