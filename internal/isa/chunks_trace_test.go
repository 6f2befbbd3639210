package isa_test

import (
	"testing"

	"dricache/internal/isa"
	"dricache/internal/trace"
)

// TestStreamChunksMatchesReplayAllBenchmarks is the adapter's acceptance
// property: over all fifteen benchmarks, the generator stream through
// isa.StreamChunks yields the same chunks, field for field (Seq included),
// as ReplayCursor.NextChunk over the recording of that stream.
func TestStreamChunksMatchesReplayAllBenchmarks(t *testing.T) {
	const n = 60_000
	for _, p := range trace.Benchmarks() {
		t.Run(p.Name, func(t *testing.T) {
			rep, exact := isa.RecordStream(p.Stream(n), n)
			if !exact {
				t.Fatal("recording inexact")
			}
			cur := rep.Cursor()
			gen := isa.ChunksOf(p.Stream(n))
			if _, ok := gen.(*isa.StreamChunks); !ok {
				t.Fatalf("ChunksOf(generator) = %T, want *isa.StreamChunks", gen)
			}
			var want, got [256]isa.DecodedInstr
			total := 0
			for {
				wn, gn := cur.NextChunk(want[:]), gen.NextChunk(got[:])
				if wn != gn {
					t.Fatalf("chunk at %d: adapter returned %d, cursor %d", total, gn, wn)
				}
				if wn == 0 {
					break
				}
				for i := range wn {
					if got[i] != want[i] {
						t.Fatalf("instruction %d:\n  adapter %+v\n  cursor  %+v", total+i, got[i], want[i])
					}
				}
				total += wn
			}
			if total != n {
				t.Fatalf("drained %d instructions, want %d", total, n)
			}
		})
	}
}
