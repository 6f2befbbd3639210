package main

import (
	"testing"
)

// traceField extracts a numeric field from the "trace" metrics object.
func traceField(t *testing.T, out map[string]any, field string) float64 {
	t.Helper()
	tr, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("response missing trace metrics: %v", out)
	}
	v, ok := tr[field].(float64)
	if !ok {
		t.Fatalf("trace metrics missing %q: %v", field, tr)
	}
	return v
}

// TestStatsEndpoint pins the GET /v1/stats wire shape: engine, lane
// executor, trace replay store, and runtime sections.
func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	out := getJSON(t, ts.URL+"/v1/stats", 200)
	for _, section := range []string{"engine", "lanes", "trace", "runtime"} {
		if _, ok := out[section].(map[string]any); !ok {
			t.Fatalf("/v1/stats missing %q section: %v", section, out)
		}
	}
	lanes := out["lanes"].(map[string]any)
	for _, field := range []string{"groups", "batches", "lanes", "decodeSaved",
		"lanesPerBatch", "execBatches", "execLanes", "fallbacks",
		"forks", "steppedInstructions"} {
		if _, ok := lanes[field].(float64); !ok {
			t.Fatalf("lanes metrics missing %q: %v", field, lanes)
		}
	}
	if traceField(t, out, "budgetBytes") <= 0 {
		t.Fatal("trace store reports a non-positive budget")
	}
	rt := out["runtime"].(map[string]any)
	if rt["goroutines"].(float64) < 1 || rt["gomaxprocs"].(float64) < 1 {
		t.Fatalf("implausible runtime section: %v", rt)
	}
}

// TestStatsTrackLaneScheduler verifies a sweep advances the engine's lane
// scheduler counters (each test server has a fresh engine, so the sweep's
// simulations are this engine's first lane batches) and that /healthz
// carries the same section. The grid is one fork class, so the executor
// steps fewer instructions than the batch simulates.
func TestStatsTrackLaneScheduler(t *testing.T) {
	ts := testServer(t)
	stepped0 := getJSON(t, ts.URL+"/v1/stats", 200)["lanes"].(map[string]any)["steppedInstructions"].(float64)
	const sweep = `{"benchmarks":["li"],"instructions":60000,"senseInterval":30000,` +
		`"missBounds":[100,300],"sizeBounds":[1024,4096]}`
	postJSON(t, ts.URL+"/v1/sweep", sweep, 200)
	out := getJSON(t, ts.URL+"/healthz", 200)
	lanes, ok := out["lanes"].(map[string]any)
	if !ok {
		t.Fatalf("/healthz missing lanes section: %v", out)
	}
	// 2×2 grid plus the shared baseline: five simulations in one
	// (benchmark, budget) lane group.
	if got := lanes["groups"].(float64); got != 1 {
		t.Errorf("lane groups = %v, want 1", got)
	}
	if got := lanes["lanes"].(float64); got != 5 {
		t.Errorf("lanes = %v, want 5", got)
	}
	batches := lanes["batches"].(float64)
	if batches < 1 || batches > 5 {
		t.Errorf("batches = %v, want within [1,5]", batches)
	}
	if got := lanes["decodeSaved"].(float64); got != 5-batches {
		t.Errorf("decodeSaved = %v, want lanes-batches = %v", got, 5-batches)
	}
	if got := lanes["execLanes"].(float64); got < 1 {
		t.Errorf("executor lanes = %v after a sweep", got)
	}
	if got := lanes["steppedInstructions"].(float64) - stepped0; got <= 0 || got >= 5*60000 {
		t.Errorf("stepped instructions = %v for five 60000-instruction lanes, want shared stepping", got)
	}
}

// TestStatsTrackReplayStore verifies the trace-store counters advance as
// simulations record and replay streams, and that /healthz carries the
// same section.
func TestStatsTrackReplayStore(t *testing.T) {
	ts := testServer(t)
	before := getJSON(t, ts.URL+"/v1/stats", 200)
	beforeTouches := traceField(t, before, "hits") + traceField(t, before, "misses")

	// Two identical runs: the first simulates (recording or replaying the
	// stream depending on what earlier tests left in the shared store),
	// the second is an engine result-cache hit and never touches the
	// trace store.
	const body = `{"benchmark":"li","instructions":60000}`
	postJSON(t, ts.URL+"/v1/run", body, 200)
	mid := getJSON(t, ts.URL+"/v1/stats", 200)
	midTouches := traceField(t, mid, "hits") + traceField(t, mid, "misses")
	if midTouches != beforeTouches+1 {
		t.Fatalf("first run should touch the trace store once: before %v, after %v",
			beforeTouches, midTouches)
	}
	if traceField(t, mid, "entries") < 1 || traceField(t, mid, "bytes") <= 0 {
		t.Fatalf("trace store holds no recording after a run: %v", mid["trace"])
	}

	out := postJSON(t, ts.URL+"/v1/run", body, 200)
	if cached, _ := out["cached"].(bool); !cached {
		t.Fatal("second identical run was not an engine cache hit")
	}
	after := getJSON(t, ts.URL+"/v1/stats", 200)
	if got := traceField(t, after, "hits") + traceField(t, after, "misses"); got != midTouches {
		t.Fatalf("engine-cached run touched the trace store: %v -> %v", midTouches, got)
	}

	// A different budget is a distinct stream: the store records again.
	postJSON(t, ts.URL+"/v1/run", `{"benchmark":"li","instructions":70000}`, 200)
	final := getJSON(t, ts.URL+"/healthz", 200)
	if got := traceField(t, final, "hits") + traceField(t, final, "misses"); got != midTouches+1 {
		t.Fatalf("distinct budget did not touch the trace store: %v -> %v", midTouches, got)
	}
}
