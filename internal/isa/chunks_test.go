package isa

import "testing"

// drainChunks reads src to the end in chunks of size k.
func drainChunks(src ChunkSource, k int) [][]DecodedInstr {
	var out [][]DecodedInstr
	for {
		buf := make([]DecodedInstr, k)
		n := src.NextChunk(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n])
	}
}

// TestStreamChunksMatchesDecode feeds the hand-built sample (every class,
// backward PCs and addresses, register 0) plus a stream starting at PC 0
// (sequential with respect to the encoder's initial PC) and a stray
// MemAddr/Target on classes that do not carry them: the adapter's chunks
// must equal a record-then-decode of the same instructions field for field.
func TestStreamChunksMatchesDecode(t *testing.T) {
	streams := map[string][]Instr{
		"sample": sampleInstrs(),
		"pc-zero": {
			{PC: 0, Class: IntALU, Src1: NoReg, Src2: NoReg, Dst: 1},
			{PC: 4, Class: Load, MemAddr: 0x1000, Target: 0x99, Src1: 1, Src2: NoReg, Dst: 2},
			{PC: 8, Class: IntALU, MemAddr: 0x77, Target: 0x88, Src1: 2, Src2: NoReg, Dst: 3},
			{PC: 12, Class: Branch, Taken: true, MemAddr: 0x55, Target: 0, Src1: 3, Src2: NoReg, Dst: NoReg},
			{PC: 0, Class: Ret, Target: 16, Src1: NoReg, Src2: NoReg, Dst: NoReg},
		},
	}
	for name, instrs := range streams {
		for _, k := range []int{1, 3, 256} {
			rep, _ := RecordStream(&SliceStream{Instrs: instrs}, uint64(len(instrs)))
			cur := rep.Cursor()
			want := drainChunks(&cur, k)
			got := drainChunks(ChunksOf(&SliceStream{Instrs: instrs}), k)
			if len(got) != len(want) {
				t.Fatalf("%s/k=%d: %d chunks, want %d", name, k, len(got), len(want))
			}
			for c := range want {
				if len(got[c]) != len(want[c]) {
					t.Fatalf("%s/k=%d chunk %d: %d instructions, want %d", name, k, c, len(got[c]), len(want[c]))
				}
				for i := range want[c] {
					if got[c][i] != want[c][i] {
						t.Fatalf("%s/k=%d chunk %d entry %d:\n  adapter %+v\n  decode  %+v",
							name, k, c, i, got[c][i], want[c][i])
					}
				}
			}
		}
	}
}

// TestStreamChunksEnd: an exhausted adapter keeps returning 0 without
// calling the stream again, and ChunksOf hands a replay cursor back as is.
func TestStreamChunksEnd(t *testing.T) {
	s := &countingStream{SliceStream: SliceStream{Instrs: sampleInstrs()}}
	src := ChunksOf(s)
	buf := make([]DecodedInstr, 256)
	if n := src.NextChunk(buf); n != len(sampleInstrs()) {
		t.Fatalf("first chunk = %d, want %d", n, len(sampleInstrs()))
	}
	calls := s.calls
	for range 3 {
		if n := src.NextChunk(buf); n != 0 {
			t.Fatalf("exhausted adapter returned %d", n)
		}
	}
	if s.calls != calls {
		t.Fatalf("exhausted adapter called the stream %d more times", s.calls-calls)
	}

	rep, _ := RecordStream(&SliceStream{Instrs: sampleInstrs()}, 0)
	cur := rep.Cursor()
	if got := ChunksOf(&cur); got != ChunkSource(&cur) {
		t.Fatal("ChunksOf wrapped a replay cursor instead of returning it")
	}
}

// countingStream counts Next calls.
type countingStream struct {
	SliceStream
	calls int
}

func (s *countingStream) Next(ins *Instr) bool {
	s.calls++
	return s.SliceStream.Next(ins)
}
