package trace

import (
	"context"
	"encoding/hex"
	"errors"
	"log/slog"
	"testing"
	"time"

	"dricache/internal/isa"
	"dricache/internal/persist"
)

func openPersist(t *testing.T, fs persist.FS) *persist.Store {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(discardWriter{}, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	p, err := persist.Open(persist.Config{Dir: "/persist", FS: fs, Log: quiet})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	t.Cleanup(func() { p.Close(context.Background()) })
	return p
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestStorePersistedReplay pins the trace store's second-level cache: a
// recording written through the persistence layer is decoded — not
// re-generated — by a fresh store on the surviving filesystem, and the
// replayed stream is bit-identical to the generator's.
func TestStorePersistedReplay(t *testing.T) {
	const instrs = 200_000
	p, err := ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	mem := persist.NewMemFS()

	s1 := NewStore(DefaultStoreBudget)
	s1.SetPersist(openPersist(t, mem))
	rep1 := s1.Replay(p, instrs)
	if rep1 == nil {
		t.Fatal("recording bypassed unexpectedly")
	}
	if st := s1.Stats(); st.Misses != 1 || st.PersistHits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.persistStore().Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// "Restart": fresh in-memory store, fresh persist store, same disk.
	s2 := NewStore(DefaultStoreBudget)
	s2.SetPersist(openPersist(t, mem))
	rep2 := s2.Replay(p, instrs)
	if rep2 == nil {
		t.Fatal("persisted recording not served")
	}
	st := s2.Stats()
	if st.PersistHits != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("warm stats = hits %d, misses %d, persistHits %d; want 1/0/1",
			st.Hits, st.Misses, st.PersistHits)
	}

	// The decoded stream must match the generator instruction for
	// instruction.
	gen := p.Stream(instrs)
	cur := rep2.Cursor()
	var want, got isa.Instr
	for i := 0; ; i++ {
		wOK := gen.Next(&want)
		gOK := cur.Next(&got)
		if wOK != gOK {
			t.Fatalf("stream length mismatch at %d (gen %v, replay %v)", i, wOK, gOK)
		}
		if !wOK {
			break
		}
		if want != got {
			t.Fatalf("instruction %d = %+v, want %+v", i, got, want)
		}
	}

	// A second request on the same store is a plain memory hit, not
	// another disk read.
	s2.Replay(p, instrs)
	if st := s2.Stats(); st.PersistHits != 1 || st.Hits != 2 {
		t.Fatalf("re-request stats = %+v", st)
	}
}

// TestStorePersistedReplayCorruptFallsBack damages the persisted recording
// and verifies the store re-records: correct stream, quarantined corpse,
// no errors.
func TestStorePersistedReplayCorruptFallsBack(t *testing.T) {
	const instrs = 100_000
	p, err := ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	mem := persist.NewMemFS()

	s1 := NewStore(DefaultStoreBudget)
	s1.SetPersist(openPersist(t, mem))
	s1.Replay(p, instrs)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.persistStore().Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// Damage the one artifact on disk.
	names, err := mem.ReadDir("/persist/traces")
	if err != nil || len(names) != 1 {
		t.Fatalf("ReadDir = %v, %v; want one artifact", names, err)
	}
	if err := mem.Corrupt("/persist/traces/"+names[0], []byte("garbage")); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}

	pp := openPersist(t, mem)
	s2 := NewStore(DefaultStoreBudget)
	s2.SetPersist(pp)
	rep := s2.Replay(p, instrs)
	if rep == nil {
		t.Fatal("replay failed after corruption")
	}
	if rep.Len() != instrs {
		t.Fatalf("recovered replay length %d, want %d", rep.Len(), instrs)
	}
	if st := s2.Stats(); st.PersistHits != 0 || st.Misses != 1 {
		t.Fatalf("stats after corrupt fallback = %+v", st)
	}
	if st := pp.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

// TestReplayCtxCancelAbandonsRecording cancels a recording in progress:
// ReplayCtx returns the cancellation cause, the store keeps no entry, the
// persistence layer receives nothing, and the next request records afresh
// a stream identical to the generator's.
func TestReplayCtxCancelAbandonsRecording(t *testing.T) {
	const instrs = 100_000
	p, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	fs := persist.NewMemFS()
	s := NewStore(DefaultStoreBudget)
	s.SetPersist(openPersist(t, fs))
	cause := errors.New("test: cancel the recording")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause) // the recorder sees it at its first check
	if rep, err := s.ReplayCtx(ctx, p, instrs); rep != nil || !errors.Is(err, cause) {
		t.Fatalf("cancelled ReplayCtx = (%v, %v), want (nil, %v)", rep, err, cause)
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("abandoned recording left state behind: %+v", st)
	}
	flush, done := context.WithTimeout(context.Background(), 10*time.Second)
	defer done()
	if err := s.persistStore().Flush(flush); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	key := keyFor(p, instrs)
	if _, ok := s.persistStore().Load(persist.KindTrace, hex.EncodeToString(key[:])); ok {
		t.Fatal("abandoned recording was persisted")
	}
	rep, err := s.ReplayCtx(context.Background(), p, instrs)
	if err != nil || rep == nil {
		t.Fatalf("retry = (%v, %v), want a recording", rep, err)
	}
	cur := rep.Cursor()
	gen := p.Stream(instrs)
	var a, b isa.Instr
	for gen.Next(&a) {
		if !cur.Next(&b) || a != b {
			t.Fatal("retried recording diverges from the generator")
		}
	}
	if cur.Next(&b) {
		t.Fatal("retried recording is longer than the stream")
	}
}
