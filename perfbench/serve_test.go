package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// A traced serve run reports the engine counters it read from /v1/stats;
// filling in the layers only the batch workloads move must not zero them.
func TestServeLayersKeepEngineCounters(t *testing.T) {
	dir := t.TempDir()
	persistDir := filepath.Join(dir, "persist")
	if err := os.MkdirAll(persistDir, 0o755); err != nil {
		t.Fatal(err)
	}
	snap := func(hits, misses, deduped, persistHits float64) statsSnap {
		return statsSnap{stats: map[string]map[string]any{"engine": {
			"hits": hits, "misses": misses, "deduped": deduped, "persistHits": persistHits}}}
	}
	rep := newReport()
	s := &serveBench{w: io.Discard, rep: rep, dir: dir}
	s.layers(snap(10, 5, 1, 2), snap(40, 12, 4, 9), nil, persistDir, &loadgen{})
	zeroBatchLayers(rep)
	want := map[string]float64{"engine.misses": 7, "engine.deduped": 3, "engine.persist_hits": 7,
		"engine.hit_share": (30.0 + 3) / (30 + 7 + 3)}
	for name, v := range want {
		if got := rep.values[name]; got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	if v, ok := rep.values["isa.decode_s"]; !ok || v != 0 {
		t.Errorf("batch-only layer isa.decode_s = %g (set %v), want 0", v, ok)
	}
}
