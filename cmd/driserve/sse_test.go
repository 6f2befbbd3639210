package main

// httptest coverage of the live progress stream: request IDs propagate into
// every event payload, a fast already-finished run still replays its full
// event history, a disconnecting client releases its subscription, and a
// timeline request on a stream the replay store bypasses returns the same
// series as on a warm store.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dricache/internal/engine"
	"dricache/internal/trace"
)

// sseMessage is one parsed SSE frame.
type sseMessage struct {
	event string
	data  map[string]any
}

// readSSE drains one SSE stream to EOF and parses its frames.
func readSSE(t *testing.T, url string) []sseMessage {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var msgs []sseMessage
	var cur sseMessage
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("malformed event data %q: %v", line, err)
			}
		case line == "":
			if cur.event != "" || cur.data != nil {
				msgs = append(msgs, cur)
				cur = sseMessage{}
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return msgs
}

func postWithRequestID(t *testing.T, url, reqID, body string, wantStatus int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("response X-Request-ID = %q, want %q", got, reqID)
	}
}

// TestProgressStreamRequestID runs a timeline-enabled simulation under a
// caller-chosen request ID, then replays its progress stream and checks
// that every event carries that ID and the stream terminates with "done".
func TestProgressStreamRequestID(t *testing.T) {
	ts := testServer(t)
	const reqID = "sse-test-run"
	postWithRequestID(t, ts.URL+"/v1/run?timeline=1", reqID,
		`{"benchmark":"applu","instructions":400000}`, http.StatusOK)

	msgs := readSSE(t, ts.URL+"/v1/runs/"+reqID+"/progress")
	if len(msgs) < 2 {
		t.Fatalf("got %d events, want interval heartbeats plus done", len(msgs))
	}
	var intervals int
	for _, m := range msgs {
		if m.data["requestId"] != reqID {
			t.Fatalf("event %q carries requestId %v, want %q", m.event, m.data["requestId"], reqID)
		}
		if m.event == "interval" {
			intervals++
			if m.data["endInstructions"].(float64) <= 0 {
				t.Fatalf("interval event without endInstructions: %v", m.data)
			}
		}
	}
	if intervals == 0 {
		t.Fatal("no interval heartbeats in stream")
	}
	last := msgs[len(msgs)-1]
	if last.event != "done" || last.data["outcome"] != "ok" {
		t.Fatalf("stream did not end with done/ok: %+v", last)
	}
}

// TestProgressStreamSweep checks that sweep requests publish per-batch
// completion events.
func TestProgressStreamSweep(t *testing.T) {
	ts := testServer(t)
	const reqID = "sse-test-sweep"
	postWithRequestID(t, ts.URL+"/v1/sweep", reqID,
		`{"benchmarks":["applu"],"missBounds":[100,400],"sizeBounds":[1024,4096],
		  "instructions":400000,"senseInterval":50000}`, http.StatusOK)

	msgs := readSSE(t, ts.URL+"/v1/runs/"+reqID+"/progress")
	var sweeps int
	for _, m := range msgs {
		if m.event != "sweep" {
			continue
		}
		sweeps++
		done, total := m.data["done"].(float64), m.data["total"].(float64)
		if done <= 0 || total <= 0 || done > total {
			t.Fatalf("implausible sweep progress: %v", m.data)
		}
		if m.data["benchmark"] != "applu" {
			t.Fatalf("sweep event benchmark = %v", m.data["benchmark"])
		}
	}
	if sweeps == 0 {
		t.Fatal("no sweep progress events in stream")
	}
	if last := msgs[len(msgs)-1]; last.event != "done" {
		t.Fatalf("stream did not end with done: %+v", last)
	}
}

func TestProgressUnknownID(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/runs/never-seen/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["error"] == nil || out["error"] == "" {
		t.Fatalf("404 without structured error: %v", out)
	}
}

// syncRecorder is a minimal concurrency-safe ResponseWriter+Flusher: the
// SSE handler writes from its own goroutine while the test polls the body.
type syncRecorder struct {
	mu sync.Mutex
	h  http.Header
	b  strings.Builder
}

func (r *syncRecorder) Header() http.Header {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.h == nil {
		r.h = make(http.Header)
	}
	return r.h
}

func (r *syncRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.b.Write(p)
}

func (r *syncRecorder) WriteHeader(int) {}
func (r *syncRecorder) Flush()          {}

func (r *syncRecorder) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.b.String()
}

// TestProgressClientDisconnect subscribes to an in-flight entry, drops the
// client, and checks the handler returns and releases its subscription.
func TestProgressClientDisconnect(t *testing.T) {
	s := &server{progress: newProgressHub()}
	ent := s.progress.begin("live")
	ent.publish("interval", map[string]any{"endInstructions": 1})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/runs/live/progress", nil).WithContext(ctx)
	req.SetPathValue("id", "live")
	rec := &syncRecorder{}

	returned := make(chan struct{})
	go func() {
		s.handleProgress(rec, req)
		close(returned)
	}()

	// The buffered event must arrive before any disconnect.
	deadline := time.After(5 * time.Second)
	for {
		if strings.Contains(rec.String(), "event: interval") {
			break
		}
		select {
		case <-deadline:
			t.Fatal("buffered event never written")
		case <-time.After(time.Millisecond):
		}
	}

	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return on client disconnect")
	}
	ent.mu.Lock()
	subs := len(ent.subs)
	ent.mu.Unlock()
	if subs != 0 {
		t.Fatalf("disconnect left %d live subscriptions", subs)
	}
}

// TestSlowSubscriberDroppedWithoutBlocking pins the hub's slow-consumer
// policy: a subscriber that stops draining is dropped (channel closed,
// subscription removed) the moment its buffer overflows, publishers never
// block on it, and healthy subscribers keep receiving every event.
func TestSlowSubscriberDroppedWithoutBlocking(t *testing.T) {
	hub := newProgressHub()
	ent := hub.begin("slow-consumer")
	_, slow, _ := ent.subscribe()
	_, fast, _ := ent.subscribe()

	// Fill every subscriber buffer to the brim, then drain only the healthy
	// one so the next publish distinguishes the two.
	for i := 0; i < subscriberBuffer; i++ {
		ent.publish("interval", map[string]any{"i": i})
	}
	for i := 0; i < subscriberBuffer; i++ {
		select {
		case <-fast:
		case <-time.After(5 * time.Second):
			t.Fatalf("healthy subscriber starved at event %d", i)
		}
	}

	// The overflowing publish must return promptly (never block on the
	// stalled channel) and must drop only the stalled subscriber.
	published := make(chan struct{})
	go func() {
		ent.publish("interval", map[string]any{"i": subscriberBuffer})
		close(published)
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a stalled subscriber")
	}

	select {
	case ev := <-fast:
		if ev.Type != "interval" {
			t.Fatalf("healthy subscriber got %q, want interval", ev.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy subscriber missed the event that dropped the slow one")
	}

	// The stalled subscriber keeps its buffered backlog, then sees the
	// close — not a silent gap.
	for i := 0; i < subscriberBuffer; i++ {
		if _, ok := <-slow; !ok {
			t.Fatalf("slow subscriber lost buffered event %d", i)
		}
	}
	if _, ok := <-slow; ok {
		t.Fatal("slow subscriber still receiving; want closed channel")
	}
	ent.mu.Lock()
	_, slowSubbed := ent.subs[slow]
	_, fastSubbed := ent.subs[fast]
	subs := len(ent.subs)
	ent.mu.Unlock()
	if slowSubbed || !fastSubbed || subs != 1 {
		t.Fatalf("subscriptions after drop: slow=%v fast=%v len=%d, want false/true/1",
			slowSubbed, fastSubbed, subs)
	}

	// Dropping must not have marked the entry done; the history replays in
	// full for a re-opened stream.
	buffered, live, done := ent.subscribe()
	if done {
		t.Fatal("entry reported done after a subscriber drop")
	}
	ent.unsubscribe(live)
	if len(buffered) != subscriberBuffer+1 {
		t.Fatalf("replay buffer holds %d events, want %d", len(buffered), subscriberBuffer+1)
	}
}

// TestSlowSubscriberStreamEndsWithDrop drives the HTTP handler over a
// dropped subscription: the SSE stream must terminate with an explicit
// "dropped" event instead of hanging or silently gapping.
func TestSlowSubscriberStreamEndsWithDrop(t *testing.T) {
	s := &server{progress: newProgressHub()}
	ent := s.progress.begin("stall")

	req := httptest.NewRequest(http.MethodGet, "/v1/runs/stall/progress", nil)
	req.SetPathValue("id", "stall")
	rec := &syncRecorder{}
	returned := make(chan struct{})
	go func() {
		s.handleProgress(rec, req)
		close(returned)
	}()

	// Wait for the handler's subscription, then stall it: hold the
	// recorder's lock so the handler blocks mid-write while events pile up
	// past its channel buffer.
	deadline := time.After(5 * time.Second)
	for {
		ent.mu.Lock()
		n := len(ent.subs)
		ent.mu.Unlock()
		if n == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("handler never subscribed")
		case <-time.After(time.Millisecond):
		}
	}
	rec.mu.Lock()
	for i := 0; i < subscriberBuffer+2; i++ {
		ent.publish("interval", map[string]any{"i": i})
	}
	rec.mu.Unlock()

	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after being dropped")
	}
	if !strings.Contains(rec.String(), "event: dropped") {
		t.Fatal("stream ended without the dropped event")
	}
	ent.mu.Lock()
	subs := len(ent.subs)
	ent.mu.Unlock()
	if subs != 0 {
		t.Fatalf("drop left %d live subscriptions", subs)
	}
}

// TestTimelineOnStoreBypass asks for interval recording with the trace
// replay store disabled, so every stream is generated and fed to the lane
// executor through the chunk adapter. /v1/run?timeline=1 and
// /v1/compare?timeline=1 must succeed and return exactly the series the
// same requests return over a warm store.
func TestTimelineOnStoreBypass(t *testing.T) {
	const body = `{"benchmark":"hydro2d","instructions":400000,"cache":{"dri":{"missBound":400,"senseInterval":50000}}}`
	timelines := func() (run, cmp any) {
		ts := httptest.NewServer(newServer(engine.New(0), 1_000_000))
		defer ts.Close()
		run = postJSON(t, ts.URL+"/v1/run?timeline=1", body, http.StatusOK)["timeline"]
		cmp = postJSON(t, ts.URL+"/v1/compare?timeline=1", body, http.StatusOK)["timeline"]
		return run, cmp
	}

	st := trace.SharedStore()
	st.SetBudget(0)
	defer st.SetBudget(trace.DefaultStoreBudget)
	bypassed := st.Stats().Bypasses
	bypassRun, bypassCmp := timelines()
	if st.Stats().Bypasses == bypassed {
		t.Fatal("store budget 0 did not bypass the stream")
	}

	st.SetBudget(trace.DefaultStoreBudget)
	prog, err := trace.ByName("hydro2d")
	if err != nil {
		t.Fatal(err)
	}
	if st.Replay(prog, 400_000) == nil {
		t.Fatal("warm store did not record the stream")
	}
	warmRun, warmCmp := timelines()

	if m, _ := bypassRun.(map[string]any); len(m) == 0 {
		t.Fatalf("bypass run returned no timeline: %v", bypassRun)
	}
	if m, _ := bypassCmp.(map[string]any); m["baseline"] == nil || m["dri"] == nil {
		t.Fatalf("bypass compare timeline lacks a side: %v", bypassCmp)
	}
	if !reflect.DeepEqual(bypassRun, warmRun) {
		t.Error("/v1/run timeline on a bypassed stream differs from the warm-store series")
	}
	if !reflect.DeepEqual(bypassCmp, warmCmp) {
		t.Error("/v1/compare timeline on a bypassed stream differs from the warm-store series")
	}
}
