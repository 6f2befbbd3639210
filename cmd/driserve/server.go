package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"dricache/internal/dri"
	"dricache/internal/energy"
	"dricache/internal/engine"
	"dricache/internal/exp"
	"dricache/internal/jobs"
	"dricache/internal/mem"
	"dricache/internal/obs"
	"dricache/internal/persist"
	"dricache/internal/policy"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

// server exposes one shared simulation engine over HTTP. All endpoints
// share the engine's result cache, so repeated and concurrent identical
// requests — including the conventional baselines behind /v1/compare and
// /v1/sweep — are simulated once; every response carries the engine's
// cache-hit counters.
type server struct {
	eng *engine.Engine
	// maxInstructions caps the per-run budget a request may demand.
	maxInstructions uint64
	// maxSweepPoints caps benchmarks × miss-bounds × size-bounds per sweep.
	maxSweepPoints int
	// reg is the server's metrics registry: engine, lane, trace-store,
	// simulation, jobs, runtime, and HTTP instruments; every stats surface
	// is a view over it (see obs.go).
	reg   *obs.Registry
	httpm *httpInstruments
	log   *slog.Logger
	// progress tracks per-request and per-job progress entries for the SSE
	// streams at /v1/runs/{id}/progress and /v1/jobs/{id}/progress.
	progress *progressHub
	// jobs is the async job manager behind /v1/jobs: bounded priority
	// queue, per-client admission, real cancellation, drain on shutdown.
	jobs *jobs.Manager
	// persist is the crash-safe disk layer under the result cache and trace
	// store; nil when -persistdir is unset. Its health decides the top-level
	// "status" on /healthz: a degraded store keeps serving (memory-only), so
	// the process stays live but operators see the reason.
	persist *persist.Store
}

// newServer is the single-argument constructor the tests use; production
// (main) calls buildServer to keep the *server for shutdown draining.
func newServer(eng *engine.Engine, maxInstructions uint64) http.Handler {
	s := buildServer(eng, maxInstructions, jobs.Config{}, nil)
	return s.handler()
}

// buildServer assembles the server: one registry over every layer, the
// progress hub, and the job manager (wired to publish SSE transitions).
// p is the optional persistence layer (nil = memory-only serving).
func buildServer(eng *engine.Engine, maxInstructions uint64, jcfg jobs.Config, p *persist.Store) *server {
	s := &server{
		eng:             eng,
		maxInstructions: maxInstructions,
		maxSweepPoints:  1024,
		reg:             obs.NewRegistry(),
		log:             slog.Default(),
		progress:        newProgressHub(),
		jobs:            jobs.NewManager(jcfg),
		persist:         p,
	}
	eng.RegisterMetrics(s.reg)
	trace.SharedStore().RegisterMetrics(s.reg)
	if p != nil {
		p.RegisterMetrics(s.reg)
	}
	sim.RegisterMetrics(s.reg)
	obs.RegisterRuntimeMetrics(s.reg)
	s.jobs.RegisterMetrics(s.reg)
	s.jobs.SetObserver(s.publishJobTransition)
	s.httpm = newHTTPInstruments(s.reg)
	return s
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetricsJSON)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/runs/{id}/progress", s.handleProgress)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleJobProgress)
	return s.instrument(mux)
}

// engineMetrics is the cache/pool snapshot attached to every response.
type engineMetrics struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Deduped uint64 `json:"deduped"`
	// PersistHits counts hits served by loading a persisted result from
	// disk instead of simulating (a subset of Hits; zero without -persistdir).
	PersistHits uint64  `json:"persistHits"`
	HitRate     float64 `json:"hitRate"`
	Entries     int     `json:"entries"`
	InFlight    int     `json:"inFlight"`
	Parallelism int     `json:"parallelism"`
}

// traceMetrics is the wire form of the shared trace replay store's
// counters: how many (benchmark, budget) streams are recorded, their
// encoded footprint against the byte budget, and how the record-once /
// replay-many traffic splits.
type traceMetrics struct {
	Entries     int     `json:"entries"`
	Bytes       int64   `json:"bytes"`
	BudgetBytes int64   `json:"budgetBytes"`
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	PersistHits uint64  `json:"persistHits"`
	Evictions   uint64  `json:"evictions"`
	Bypasses    uint64  `json:"bypasses"`
	HitRate     float64 `json:"hitRate"`
}

func (s *server) metrics() engineMetrics {
	return engineMetricsFrom(s.reg.Snapshot())
}

// persistMetrics is the wire form of the persistence layer's health and
// counters: whether disk is being served at all (status/reason), what is
// committed (files/bytes against the budget), and how the write-behind and
// load paths are behaving — drops, quarantines, degradations, recoveries.
type persistMetrics struct {
	Status        string `json:"status"`
	Reason        string `json:"reason,omitempty"`
	Dir           string `json:"dir"`
	Files         int    `json:"files"`
	Bytes         int64  `json:"bytes"`
	BudgetBytes   int64  `json:"budgetBytes"`
	QueueDepth    int    `json:"queueDepth"`
	Writes        uint64 `json:"writes"`
	WriteErrors   uint64 `json:"writeErrors"`
	DroppedWrites uint64 `json:"droppedWrites"`
	Loads         uint64 `json:"loads"`
	LoadMisses    uint64 `json:"loadMisses"`
	LoadErrors    uint64 `json:"loadErrors"`
	DegradedSkips uint64 `json:"degradedSkips"`
	Quarantined   uint64 `json:"quarantined"`
	Evictions     uint64 `json:"evictions"`
	Degradations  uint64 `json:"degradations"`
	Recoveries    uint64 `json:"recoveries"`
}

func (s *server) persistMetrics() persistMetrics {
	st, h := s.persist.Stats(), s.persist.Health()
	return persistMetrics{
		Status:        h.Status,
		Reason:        h.Reason,
		Dir:           h.Dir,
		Files:         st.Files,
		Bytes:         st.Bytes,
		BudgetBytes:   st.BudgetBytes,
		QueueDepth:    st.QueueDepth,
		Writes:        st.Writes,
		WriteErrors:   st.WriteErrors,
		DroppedWrites: st.DroppedWrites,
		Loads:         st.Loads,
		LoadMisses:    st.LoadMisses,
		LoadErrors:    st.LoadErrors,
		DegradedSkips: st.DegradedSkips,
		Quarantined:   st.Quarantined,
		Evictions:     st.Evictions,
		Degradations:  st.DegradedEvents,
		Recoveries:    st.Recoveries,
	}
}

// laneMetrics is the wire form of the lane executor's counters: the
// engine's batch scheduler (how sweep traffic grouped into shared-decode
// batches and how many stream decode passes that saved) plus the
// process-wide executor counters underneath it (lock-step passes actually
// run, including lanes from non-engine callers, and fallbacks: the lane
// simulations fed by the trace generator because the replay store bypassed
// their stream; forks: lanes split off a fork class where the members' L1
// i-cache resize decisions first differed; steppedInstructions: the
// instructions the stage model actually advanced, summed over stepped
// lanes).
type laneMetrics struct {
	Groups        uint64 `json:"groups"`
	Batches       uint64 `json:"batches"`
	Lanes         uint64 `json:"lanes"`
	DecodeSaved   uint64 `json:"decodeSaved"`
	LanesPerBatch int    `json:"lanesPerBatch"` // 0 = automatic
	ExecBatches   uint64 `json:"execBatches"`
	ExecLanes     uint64 `json:"execLanes"`
	Fallbacks     uint64 `json:"fallbacks"`
	Forks         uint64 `json:"forks"`
	Stepped       uint64 `json:"steppedInstructions"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{
		"error":  fmt.Sprintf(format, args...),
		"status": status,
	})
}

// decodeBody decodes a strict-JSON request body; a non-zero returned status
// is the HTTP error to report (413 for an oversized body, 400 otherwise).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err)
	}
	return 0, nil
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	// The process is live either way ("ok": true): a degraded persistence
	// layer means memory-only serving, not an outage. "status" carries the
	// distinction so probes can alert without failing the health check.
	resp := map[string]any{
		"ok":     true,
		"status": "ok",
		"engine": engineMetricsFrom(snap),
		"lanes":  laneMetricsFrom(snap),
		"trace":  traceMetricsFrom(snap),
		"jobs":   s.jobs.Stats(),
	}
	if s.persist != nil {
		pm := s.persistMetrics()
		resp["persist"] = pm
		if pm.Status != "ok" {
			resp["status"] = pm.Status
			resp["reason"] = pm.Reason
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStats is the operational counters endpoint: the engine's result
// cache and worker pool, the shared trace replay store, and process-level
// scheduling facts — everything needed to see whether sweep traffic is
// being served from caches or from fresh simulation work. Every block is a
// view over one registry snapshot, the same registry /metrics exposes, so
// the surfaces cannot diverge.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	resp := map[string]any{
		"engine": engineMetricsFrom(snap),
		"lanes":  laneMetricsFrom(snap),
		"trace":  traceMetricsFrom(snap),
		"jobs":   s.jobs.Stats(),
		"runtime": map[string]any{
			"goroutines": int(snap.Value("go_goroutines")),
			"gomaxprocs": int(snap.Value("go_gomaxprocs")),
		},
	}
	if s.persist != nil {
		resp["persist"] = s.persistMetrics()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePolicies lists the leakage-control policies, each with its paper
// lineage and its default parameters at the standard 100K-instruction
// sense interval, ready to paste into a run/compare/sweep "policy" object.
func (s *server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Kind        string        `json:"kind"`
		Description string        `json:"description"`
		Paper       string        `json:"paper"`
		Defaults    policyRequest `json:"defaults"`
	}
	toReq := func(c policy.Config) policyRequest {
		return policyRequest{
			Kind:                 string(c.Kind),
			IntervalInstructions: c.IntervalInstructions,
			DecayIntervals:       c.DecayIntervals,
			WakeupCycles:         c.WakeupCycles,
			DrowsyLeakFraction:   c.DrowsyLeakFraction,
			MissBound:            c.MissBound,
			MinWays:              c.MinWays,
			MemoTableEntries:     c.MemoTableEntries,
		}
	}
	const iv = 100_000
	rows := []row{
		{
			Kind:        string(policy.Conventional),
			Description: "full-size, always-on cache (the baseline every comparison is scored against)",
			Paper:       "conventional baseline of Yang et al., HPCA 2001",
			Defaults:    policyRequest{Kind: string(policy.Conventional)},
		},
		{
			Kind:        string(policy.DRI),
			Description: "set-granular gated-Vdd resizing under miss-bound feedback (sense intervals, size-bound, throttling)",
			Paper:       "Yang, Powell, Falsafi, Roy, Vijaykumar — the source paper (HPCA 2001)",
			Defaults:    policyRequest{Kind: string(policy.DRI)},
		},
		{
			Kind:        string(policy.Decay),
			Description: "per-line gated-Vdd after an idle-interval countdown: contents lost, zero leakage while off",
			Paper:       "state-destroying regime of Bai et al.'s power-performance trade-off analysis",
			Defaults:    toReq(policy.DefaultDecay(iv)),
		},
		{
			Kind:        string(policy.Drowsy),
			Description: "per-line state-preserving low-Vdd: no extra misses, a wakeup-cycle penalty, reduced-but-nonzero leakage",
			Paper:       "state-preserving regime of Bai et al.'s power-performance trade-off analysis",
			Defaults:    toReq(policy.DefaultDrowsy(iv)),
		},
		{
			Kind:        string(policy.WayGate),
			Description: "whole ways powered off under the same miss-bound feedback loop (requires associativity >= 2)",
			Paper:       "way-granular gated-Vdd, the way-grain alternative to the paper's set-granular resizing",
			Defaults:    toReq(policy.DefaultWayGate(iv)),
		},
		{
			Kind:        string(policy.WayMemo),
			Description: "per-set MRU link registers: a memoized fetch skips the tag array and all non-selected data ways (a dynamic-energy policy; leakage is the baseline's)",
			Paper:       "Ishihara & Fallah — way memoization (arXiv 0710.4703)",
			Defaults:    toReq(policy.DefaultWayMemo(iv)),
		},
	}
	writeJSON(w, http.StatusOK, map[string]any{"policies": rows})
}

func (s *server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Name  string `json:"name"`
		Class string `json:"class"`
	}
	var rows []row
	for _, b := range trace.Benchmarks() {
		rows = append(rows, row{Name: b.Name, Class: b.Class.String()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": rows})
}

// driRequest selects and parameterizes DRI resizing. Zero-valued fields
// take the paper's base values at the chosen sense-interval.
type driRequest struct {
	MissBound           uint64  `json:"missBound"`
	SizeBoundBytes      int     `json:"sizeBoundBytes"`
	SenseInterval       uint64  `json:"senseInterval"`
	Divisibility        int     `json:"divisibility"`
	ThrottleSaturation  int     `json:"throttleSaturation"`
	ThrottleIntervals   int     `json:"throttleIntervals"`
	FlushOnResize       bool    `json:"flushOnResize"`
	ResizeWays          bool    `json:"resizeWays"`
	AutoMissBoundFactor float64 `json:"autoMissBoundFactor"`
}

// policyRequest selects a leakage-control policy for one cache level. Zero
// parameter fields take the policy's defaults at the chosen interval.
type policyRequest struct {
	// Kind is one of conventional, dri, decay, drowsy, waygate, waymemo.
	Kind string `json:"kind"`
	// IntervalInstructions is the policy tick length (defaults per kind).
	IntervalInstructions uint64 `json:"intervalInstructions"`
	// DecayIntervals is the decay idle countdown in ticks.
	DecayIntervals int `json:"decayIntervals"`
	// WakeupCycles is the drowsy wakeup latency.
	WakeupCycles int `json:"wakeupCycles"`
	// DrowsyLeakFraction is the drowsy low-Vdd leakage fraction in [0,1].
	DrowsyLeakFraction float64 `json:"drowsyLeakFraction"`
	// MissBound is the waygate feedback bound per tick.
	MissBound uint64 `json:"missBound"`
	// MinWays is the waygate minimum powered-way count.
	MinWays int `json:"minWays"`
	// MemoTableEntries sizes the waymemo link-register table (a power of
	// two; 0 = one entry per set).
	MemoTableEntries int `json:"memoTableEntries"`
}

// cacheRequest describes the L1 i-cache; zero values take the paper's base
// 64K direct-mapped geometry. Policy selects the level's leakage-control
// policy (kind dri is implied by setting dri instead).
type cacheRequest struct {
	SizeBytes int            `json:"sizeBytes"`
	Assoc     int            `json:"assoc"`
	DRI       *driRequest    `json:"dri"`
	Policy    *policyRequest `json:"policy"`
}

// l2Request describes the unified L2; zero values take the paper's Table 1
// geometry (1M 4-way, 64-byte blocks). Setting dri makes the L2 resizable
// (multi-level DRI), with a default size-bound of 1/64 of the L2 size;
// policy selects a leakage-control policy instead.
type l2Request struct {
	SizeBytes int            `json:"sizeBytes"`
	Assoc     int            `json:"assoc"`
	DRI       *driRequest    `json:"dri"`
	Policy    *policyRequest `json:"policy"`
}

type runRequest struct {
	Benchmark    string       `json:"benchmark"`
	Instructions uint64       `json:"instructions"`
	Cache        cacheRequest `json:"cache"`
	L2           *l2Request   `json:"l2"`
	// Policy is shorthand for cache.policy (the L1 i-cache policy).
	Policy *policyRequest `json:"policy"`
}

// maxBodyBytes bounds request bodies well above any legitimate payload.
const maxBodyBytes = 1 << 20

// decodeRun decodes and validates a run/compare request into a full system
// configuration; a non-zero status is the HTTP error to report.
func (s *server) decodeRun(w http.ResponseWriter, r *http.Request) (sim.Config, trace.Program, int, error) {
	var req runRequest
	if status, err := decodeBody(w, r, &req); status != 0 {
		return sim.Config{}, trace.Program{}, status, err
	}
	cfg, prog, err := s.buildRun(req)
	if err != nil {
		return sim.Config{}, trace.Program{}, http.StatusBadRequest, err
	}
	return cfg, prog, 0, nil
}

// buildRun validates a decoded run/compare payload into a full system
// configuration. It is pure — shared between the synchronous handlers and
// the jobs API, whose payloads arrive inside a job envelope; every error
// maps to HTTP 400.
func (s *server) buildRun(req runRequest) (sim.Config, trace.Program, error) {
	fail := func(err error) (sim.Config, trace.Program, error) {
		return sim.Config{}, trace.Program{}, err
	}
	prog, err := trace.ByName(req.Benchmark)
	if err != nil {
		return fail(err)
	}
	instrs := req.Instructions
	if instrs == 0 {
		instrs = 4_000_000
	}
	if instrs > s.maxInstructions {
		return fail(fmt.Errorf("instructions %d exceeds server limit %d", instrs, s.maxInstructions))
	}
	l1i, err := buildCacheConfig(req.Cache)
	if err != nil {
		return fail(err)
	}
	l2, err := buildL2Config(req.L2)
	if err != nil {
		return fail(err)
	}
	cfg := sim.Default(l1i, instrs).WithL2(l2)

	polReq := req.Policy
	if req.Cache.Policy != nil {
		if polReq != nil {
			return fail(fmt.Errorf("set either policy or cache.policy, not both"))
		}
		polReq = req.Cache.Policy
	}
	if polReq != nil {
		pol, err := buildPolicyConfig(polReq, 100_000)
		if err != nil {
			return fail(err)
		}
		switch {
		case pol.Kind == policy.DRI && !cfg.Mem.L1I.Params.Enabled:
			// Selecting the dri policy without a dri object enables the
			// paper's base parameters, mirroring the cache.dri default path.
			cfg.Mem.L1I.Params = buildDRIParams(&driRequest{}, 1<<10)
		case pol.Kind == policy.Conventional:
			// The conventional selector is the absence of a policy; reject
			// the contradiction, otherwise normalize it away so equivalent
			// requests share one engine cache entry.
			if cfg.Mem.L1I.Params.Enabled {
				return fail(fmt.Errorf("policy kind conventional contradicts cache.dri"))
			}
			pol = policy.Config{}
		}
		cfg = cfg.WithL1IPolicy(pol)
	}
	if req.L2 != nil && req.L2.Policy != nil {
		pol, err := buildPolicyConfig(req.L2.Policy, 100_000)
		if err != nil {
			return fail(fmt.Errorf("l2: %w", err))
		}
		switch {
		case pol.Kind == policy.DRI && !cfg.Mem.L2.Params.Enabled:
			return fail(fmt.Errorf("l2: policy kind dri requires l2.dri parameters"))
		case pol.Kind == policy.Conventional:
			if cfg.Mem.L2.Params.Enabled {
				return fail(fmt.Errorf("l2: policy kind conventional contradicts l2.dri"))
			}
			pol = policy.Config{}
		}
		cfg = cfg.WithL2Policy(pol)
	}
	// Policy/cache compatibility (e.g. waygate needs associativity, decay
	// cannot ride on an enabled DRI controller) is the hierarchy's rule set.
	if err := cfg.Mem.Check(); err != nil {
		return fail(err)
	}
	return cfg, prog, nil
}

// buildPolicyConfig materializes a policy request over the kind's default
// parameters at the given sense interval.
func buildPolicyConfig(p *policyRequest, senseInterval uint64) (policy.Config, error) {
	var cfg policy.Config
	switch policy.Kind(p.Kind) {
	case policy.Conventional, policy.DRI:
		// Pass-through kinds take no parameters; ignore any overrides so
		// equivalent requests share one engine cache entry.
		return policy.Config{Kind: policy.Kind(p.Kind)}, nil
	case policy.Decay:
		cfg = policy.DefaultDecay(senseInterval)
	case policy.Drowsy:
		cfg = policy.DefaultDrowsy(senseInterval)
	case policy.WayGate:
		cfg = policy.DefaultWayGate(senseInterval)
	case policy.WayMemo:
		cfg = policy.DefaultWayMemo(senseInterval)
	default:
		return policy.Config{}, fmt.Errorf("unknown policy kind %q (see GET /v1/policies)", p.Kind)
	}
	if p.IntervalInstructions != 0 {
		cfg.IntervalInstructions = p.IntervalInstructions
	}
	if p.DecayIntervals != 0 {
		cfg.DecayIntervals = p.DecayIntervals
	}
	if p.WakeupCycles != 0 {
		cfg.WakeupCycles = p.WakeupCycles
	}
	if p.DrowsyLeakFraction != 0 {
		cfg.DrowsyLeakFraction = p.DrowsyLeakFraction
	}
	if p.MissBound != 0 {
		cfg.MissBound = p.MissBound
	}
	if p.MinWays != 0 {
		cfg.MinWays = p.MinWays
	}
	if p.MemoTableEntries != 0 {
		cfg.MemoTableEntries = p.MemoTableEntries
	}
	if err := cfg.Check(); err != nil {
		return policy.Config{}, err
	}
	return cfg, nil
}

// buildDRIParams materializes request parameters over the paper's defaults
// at the chosen sense-interval; defaultSizeBound is used when the request
// leaves the size-bound unset.
func buildDRIParams(d *driRequest, defaultSizeBound int) dri.Params {
	interval := d.SenseInterval
	if interval == 0 {
		interval = 100_000
	}
	p := dri.DefaultParams(interval)
	p.SizeBoundBytes = defaultSizeBound
	if d.MissBound != 0 {
		p.MissBound = d.MissBound
	}
	if d.SizeBoundBytes != 0 {
		p.SizeBoundBytes = d.SizeBoundBytes
	}
	if d.Divisibility != 0 {
		p.Divisibility = d.Divisibility
	}
	if d.ThrottleSaturation != 0 {
		p.ThrottleSaturation = d.ThrottleSaturation
	}
	if d.ThrottleIntervals != 0 {
		p.ThrottleIntervals = d.ThrottleIntervals
	}
	p.FlushOnResize = d.FlushOnResize
	p.ResizeWays = d.ResizeWays
	p.AutoMissBoundFactor = d.AutoMissBoundFactor
	if d.AutoMissBoundFactor > 0 {
		p.MissBound = 0
	}
	return p
}

func buildCacheConfig(c cacheRequest) (dri.Config, error) {
	cfg := dri.Config{SizeBytes: c.SizeBytes, BlockBytes: 32, Assoc: c.Assoc, AddrBits: 32}
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = 64 << 10
	}
	if cfg.Assoc == 0 {
		cfg.Assoc = 1
	}
	if c.DRI != nil {
		cfg.Params = buildDRIParams(c.DRI, 1<<10)
	}
	if err := cfg.Check(); err != nil {
		return dri.Config{}, err
	}
	return cfg, nil
}

func buildL2Config(c *l2Request) (dri.Config, error) {
	cfg := mem.DefaultL2()
	if c != nil {
		if c.SizeBytes != 0 {
			cfg.SizeBytes = c.SizeBytes
		}
		if c.Assoc != 0 {
			cfg.Assoc = c.Assoc
		}
		if c.DRI != nil {
			// Default size-bound: 1/64 of the L2 (the L1's 1K/64K ratio),
			// clamped to one set so small L2 geometries stay valid.
			bound := cfg.SizeBytes / 64
			if min := cfg.BlockBytes * cfg.Assoc; bound < min {
				bound = min
			}
			cfg.Params = buildDRIParams(c.DRI, bound)
		}
	}
	if err := cfg.Check(); err != nil {
		return dri.Config{}, fmt.Errorf("l2: %w", err)
	}
	return cfg, nil
}

// resultSummary is the wire form of one simulation's observables.
type resultSummary struct {
	Benchmark           string  `json:"benchmark"`
	Instructions        uint64  `json:"instructions"`
	Cycles              uint64  `json:"cycles"`
	IPC                 float64 `json:"ipc"`
	ICacheAccesses      uint64  `json:"icacheAccesses"`
	ICacheMissRate      float64 `json:"icacheMissRate"`
	AvgActiveFraction   float64 `json:"avgActiveFraction"`
	Upsizes             uint64  `json:"upsizes"`
	Downsizes           uint64  `json:"downsizes"`
	L2AccessesFromI     uint64  `json:"l2AccessesFromI"`
	L2Accesses          uint64  `json:"l2Accesses"`
	L2MissRate          float64 `json:"l2MissRate"`
	L2AvgActiveFraction float64 `json:"l2AvgActiveFraction"`
	L2Upsizes           uint64  `json:"l2Upsizes"`
	L2Downsizes         uint64  `json:"l2Downsizes"`
	L2ResizeWritebacks  uint64  `json:"l2ResizeWritebacks"`
	MemAccesses         uint64  `json:"memAccesses"`
	// Per-line policy activity (zero unless a decay/drowsy policy ran).
	PolicyWakeups      uint64 `json:"policyWakeups,omitempty"`
	PolicyGatedLines   uint64 `json:"policyGatedLines,omitempty"`
	L2PolicyWakeups    uint64 `json:"l2PolicyWakeups,omitempty"`
	L2PolicyGatedLines uint64 `json:"l2PolicyGatedLines,omitempty"`
	L2PolicyWritebacks uint64 `json:"l2PolicyWritebacks,omitempty"`
	// Way-memoization activity (zero unless a waymemo policy ran).
	TagProbesSkipped   uint64 `json:"tagProbesSkipped,omitempty"`
	L2TagProbesSkipped uint64 `json:"l2TagProbesSkipped,omitempty"`
}

func summarize(res *sim.Result) resultSummary {
	return resultSummary{
		Benchmark:           res.Benchmark,
		Instructions:        res.CPU.Instructions,
		Cycles:              res.CPU.Cycles,
		IPC:                 res.CPU.IPC(),
		ICacheAccesses:      res.ICache.Accesses,
		ICacheMissRate:      res.MissRate(),
		AvgActiveFraction:   res.AvgActiveFraction,
		Upsizes:             res.ICache.Upsizes,
		Downsizes:           res.ICache.Downsizes,
		L2AccessesFromI:     res.Mem.L2AccessesFromI,
		L2Accesses:          res.Mem.L2Accesses(),
		L2MissRate:          res.L2.MissRate(),
		L2AvgActiveFraction: res.L2AvgActiveFraction,
		L2Upsizes:           res.L2.Upsizes,
		L2Downsizes:         res.L2.Downsizes,
		L2ResizeWritebacks:  res.Mem.L2ResizeWritebacks,
		MemAccesses:         res.Mem.MemAccesses,
		PolicyWakeups:       res.L1IPolicyStats.Wakeups,
		PolicyGatedLines:    res.L1IPolicyStats.GatedLines,
		L2PolicyWakeups:     res.L2PolicyStats.Wakeups,
		L2PolicyGatedLines:  res.L2PolicyStats.GatedLines,
		L2PolicyWritebacks:  res.Mem.L2PolicyWritebacks,
		TagProbesSkipped:    res.Mem.L1ITagProbesSkipped,
		L2TagProbesSkipped:  res.Mem.L2TagProbesSkipped,
	}
}

// wantTimeline reports whether the request opted into interval recording
// with ?timeline=1.
func wantTimeline(r *http.Request) bool { return r.URL.Query().Get("timeline") == "1" }

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	ctx, ent := s.progressCtx(r)
	outcome := "error"
	defer func() { ent.finish(map[string]any{"outcome": outcome}) }()
	_, sp := obs.StartSpan(ctx, "validate")
	cfg, prog, status, err := s.decodeRun(w, r)
	sp.End()
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	if wantTimeline(r) {
		cfg.Timeline.Enabled = true
	}
	res, cached, err := s.eng.RunCachedCtx(ctx, cfg, prog)
	if err != nil {
		outcome = "aborted"
		writeError(w, http.StatusServiceUnavailable, "run aborted: %v", err)
		return
	}
	resp := map[string]any{
		"result": summarize(res),
		"cached": cached,
		"engine": s.metrics(),
	}
	if cfg.Timeline.Enabled {
		resp["timeline"] = res.Timeline
	}
	outcome = "ok"
	s.attachTrace(r, resp)
	writeJSON(w, http.StatusOK, resp)
}

// levelSummary is one cache level's share of the total-leakage account.
type levelSummary struct {
	LeakageNJ      float64 `json:"leakageNJ"`
	ConvLeakageNJ  float64 `json:"convLeakageNJ"`
	ExtraDynamicNJ float64 `json:"extraDynamicNJ"`
	ActiveFraction float64 `json:"activeFraction"`
}

// totalSummary is the wire form of the whole-hierarchy energy account with
// its per-level (L1I/L1D/L2) breakdown.
type totalSummary struct {
	L1I            levelSummary `json:"l1i"`
	L1D            levelSummary `json:"l1d"`
	L2             levelSummary `json:"l2"`
	EffectiveNJ    float64      `json:"effectiveNJ"`
	ConvLeakageNJ  float64      `json:"convLeakageNJ"`
	SavingsNJ      float64      `json:"savingsNJ"`
	RelativeEnergy float64      `json:"relativeEnergy"`
	RelativeED     float64      `json:"relativeED"`
}

// comparisonSummary is the wire form of a DRI-vs-conventional comparison:
// the paper's L1-only §5.2 numbers plus the total-leakage account.
type comparisonSummary struct {
	Benchmark           string       `json:"benchmark"`
	RelativeED          float64      `json:"relativeED"`
	RelativeEnergy      float64      `json:"relativeEnergy"`
	LeakageShareOfED    float64      `json:"leakageShareOfED"`
	DynamicShareOfED    float64      `json:"dynamicShareOfED"`
	SlowdownPct         float64      `json:"slowdownPct"`
	ExtraPolicyNJ       float64      `json:"extraPolicyNJ,omitempty"`
	MemoSavedNJ         float64      `json:"memoSavedNJ,omitempty"`
	AvgActiveFraction   float64      `json:"avgActiveFraction"`
	L2AvgActiveFraction float64      `json:"l2AvgActiveFraction"`
	ConvCycles          uint64       `json:"convCycles"`
	DRICycles           uint64       `json:"driCycles"`
	SavingsNJ           float64      `json:"savingsNJ"`
	Total               totalSummary `json:"total"`
}

func summarizeLevel(l energy.LevelBreakdown) levelSummary {
	return levelSummary{
		LeakageNJ:      l.LeakageNJ,
		ConvLeakageNJ:  l.ConvLeakageNJ,
		ExtraDynamicNJ: l.ExtraDynamicNJ,
		ActiveFraction: l.ActiveFraction,
	}
}

func summarizeComparison(cmp sim.Comparison) comparisonSummary {
	return comparisonSummary{
		Benchmark:           cmp.DRI.Benchmark,
		RelativeED:          cmp.RelativeED,
		RelativeEnergy:      cmp.RelativeEnergy,
		LeakageShareOfED:    cmp.LeakageShareOfED,
		DynamicShareOfED:    cmp.DynamicShareOfED,
		SlowdownPct:         cmp.SlowdownPct,
		ExtraPolicyNJ:       cmp.ExtraPolicyDynamicNJ,
		MemoSavedNJ:         cmp.MemoSavedDynamicNJ,
		AvgActiveFraction:   cmp.DRI.AvgActiveFraction,
		L2AvgActiveFraction: cmp.DRI.L2AvgActiveFraction,
		ConvCycles:          cmp.Conv.CPU.Cycles,
		DRICycles:           cmp.DRI.CPU.Cycles,
		SavingsNJ:           cmp.SavingsNJ,
		Total: totalSummary{
			L1I:            summarizeLevel(cmp.Total.L1I),
			L1D:            summarizeLevel(cmp.Total.L1D),
			L2:             summarizeLevel(cmp.Total.L2),
			EffectiveNJ:    cmp.Total.EffectiveNJ,
			ConvLeakageNJ:  cmp.Total.ConvLeakageNJ,
			SavingsNJ:      cmp.Total.SavingsNJ,
			RelativeEnergy: cmp.Total.RelativeEnergy,
			RelativeED:     cmp.Total.RelativeED,
		},
	}
}

func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) {
	ctx, ent := s.progressCtx(r)
	outcome := "error"
	defer func() { ent.finish(map[string]any{"outcome": outcome}) }()
	_, sp := obs.StartSpan(ctx, "validate")
	cfg, prog, status, err := s.decodeRun(w, r)
	sp.End()
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	if wantTimeline(r) {
		// BaselineSimConfig keeps Timeline, so both sides record.
		cfg.Timeline.Enabled = true
	}
	// decodeRun normalizes conventional selectors away, so "nothing but
	// the baseline" is exactly "the config equals its own baseline".
	if cfg == sim.BaselineSimConfig(cfg) {
		writeError(w, http.StatusBadRequest,
			"compare requires a DRI or policy configuration (set cache.dri and/or l2.dri, or a policy)")
		return
	}
	cmp, cacheOutcome, err := s.eng.CompareSimCachedCtx(ctx, cfg, prog)
	if err != nil {
		outcome = "aborted"
		writeError(w, http.StatusServiceUnavailable, "compare aborted: %v", err)
		return
	}
	resp := map[string]any{
		"comparison": summarizeComparison(cmp),
		"cached": map[string]bool{
			"baseline": cacheOutcome.BaselineCached,
			"dri":      cacheOutcome.DRICached,
		},
		"engine": s.metrics(),
	}
	if cfg.Timeline.Enabled {
		resp["timeline"] = map[string]any{
			"baseline": cmp.Conv.Timeline,
			"dri":      cmp.DRI.Timeline,
		}
	}
	outcome = "ok"
	s.attachTrace(r, resp)
	writeJSON(w, http.StatusOK, resp)
}

type sweepRequest struct {
	// Benchmarks to sweep; empty means all fifteen.
	Benchmarks []string `json:"benchmarks"`
	// MissBounds and SizeBounds form the L1 parameter grid.
	MissBounds []uint64 `json:"missBounds"`
	SizeBounds []int    `json:"sizeBounds"`
	// Instructions and SenseInterval fix the scale (defaults 4M / 100K).
	Instructions  uint64 `json:"instructions"`
	SenseInterval uint64 `json:"senseInterval"`
	// SizeBytes and Assoc fix the geometry (defaults 64K direct-mapped).
	SizeBytes int `json:"sizeBytes"`
	Assoc     int `json:"assoc"`
	// L2, when set, fixes the unified L2 for every sweep point — with
	// l2.dri this makes the whole sweep a joint L1×L2 DRI study (l2.policy
	// selects an L2 leakage policy instead), and every point's response
	// carries the per-level total-leakage breakdown.
	L2 *l2Request `json:"l2"`
	// Policy, when set, applies a leakage-control policy to the L1 i-cache
	// at every point. With kind dri the miss-bound × size-bound grid
	// parameterizes the controller as usual; any other kind supplies its
	// own parameters, so the grid collapses to one point per benchmark.
	Policy *policyRequest `json:"policy"`
}

type sweepPoint struct {
	MissBound  uint64            `json:"missBound,omitempty"`
	SizeBound  int               `json:"sizeBound,omitempty"`
	Policy     string            `json:"policy,omitempty"`
	Comparison comparisonSummary `json:"comparison"`
}

// sweepPlan is a validated sweep: the scale every task shares and the task
// list ready for the runner. Built by buildSweep, executed by handleSweep
// and by sweep jobs.
type sweepPlan struct {
	scale  exp.Scale
	tasks  []exp.Task
	points int
}

// buildSweep validates a decoded sweep payload into an executable plan. It
// is pure — shared between the synchronous handler and the jobs API; every
// error maps to HTTP 400.
func (s *server) buildSweep(req sweepRequest) (sweepPlan, error) {
	scale := exp.Scale{Instructions: req.Instructions, SenseInterval: req.SenseInterval}
	if scale.Instructions == 0 {
		scale.Instructions = 4_000_000
	}
	if scale.SenseInterval == 0 {
		scale.SenseInterval = 100_000
	}
	if scale.Instructions > s.maxInstructions {
		return sweepPlan{}, fmt.Errorf(
			"instructions %d exceeds server limit %d", scale.Instructions, s.maxInstructions)
	}

	space := exp.SearchSpace{MissBounds: req.MissBounds, SizeBounds: req.SizeBounds}
	if len(space.MissBounds) == 0 || len(space.SizeBounds) == 0 {
		space = exp.DefaultSpace(scale)
		if len(req.MissBounds) > 0 {
			space.MissBounds = req.MissBounds
		}
		if len(req.SizeBounds) > 0 {
			space.SizeBounds = req.SizeBounds
		}
	}

	var progs []trace.Program
	if len(req.Benchmarks) == 0 {
		progs = trace.Benchmarks()
	} else {
		for _, name := range req.Benchmarks {
			p, err := trace.ByName(name)
			if err != nil {
				return sweepPlan{}, err
			}
			progs = append(progs, p)
		}
	}

	geometry, err := buildCacheConfig(cacheRequest{SizeBytes: req.SizeBytes, Assoc: req.Assoc})
	if err != nil {
		return sweepPlan{}, err
	}
	var l2Cfg *dri.Config
	var l2Pol *policy.Config
	if req.L2 != nil {
		cfg, err := buildL2Config(req.L2)
		if err != nil {
			return sweepPlan{}, err
		}
		l2Cfg = &cfg
		if req.L2.Policy != nil {
			pol, err := buildPolicyConfig(req.L2.Policy, scale.SenseInterval)
			if err != nil {
				return sweepPlan{}, fmt.Errorf("l2: %w", err)
			}
			if pol.Kind == policy.DRI && !cfg.Params.Enabled {
				return sweepPlan{}, fmt.Errorf("l2: policy kind dri requires l2.dri parameters")
			}
			l2Pol = &pol
		}
	}
	var polCfg *policy.Config
	if req.Policy != nil {
		pol, err := buildPolicyConfig(req.Policy, scale.SenseInterval)
		if err != nil {
			return sweepPlan{}, err
		}
		polCfg = &pol
	}

	points := len(progs) * len(space.MissBounds) * len(space.SizeBounds)
	if polCfg != nil && polCfg.Kind != policy.DRI {
		// A non-DRI policy carries its own parameters; the miss-bound ×
		// size-bound grid does not apply, so the sweep is one point per
		// benchmark.
		points = len(progs)
	}
	if points > s.maxSweepPoints {
		return sweepPlan{}, fmt.Errorf(
			"sweep of %d points exceeds server limit %d", points, s.maxSweepPoints)
	}

	var tasks []exp.Task
	addTask := func(t exp.Task) error {
		cfg := t.SimConfig(scale.Instructions)
		if err := cfg.Mem.Check(); err != nil {
			return err
		}
		tasks = append(tasks, t)
		return nil
	}
	if polCfg != nil && polCfg.Kind != policy.DRI {
		// A conventional selector is the baseline itself; run it without
		// the selector so the point and its baseline share one simulation.
		taskPol := polCfg
		if polCfg.Kind == policy.Conventional {
			taskPol = nil
		}
		for _, p := range progs {
			if err := addTask(exp.Task{Prog: p, Config: geometry, L2: l2Cfg, Policy: taskPol, L2Policy: l2Pol, Label: string(polCfg.Kind)}); err != nil {
				return sweepPlan{}, err
			}
		}
	} else {
		runner := exp.NewRunnerOn(s.eng, scale)
		for _, p := range progs {
			for _, mb := range space.MissBounds {
				for _, sb := range space.SizeBounds {
					cfg := geometry
					cfg.Params = runner.Params(mb, sb)
					if err := addTask(exp.Task{Prog: p, Config: cfg, L2: l2Cfg, Policy: polCfg, L2Policy: l2Pol}); err != nil {
						return sweepPlan{}, err
					}
				}
			}
		}
	}
	return sweepPlan{scale: scale, tasks: tasks, points: points}, nil
}

// sweepRows folds task results into the response's per-benchmark rows.
func sweepRows(results []exp.TaskResult) map[string][]sweepPoint {
	rows := make(map[string][]sweepPoint)
	for _, tr := range results {
		rows[tr.Prog.Name] = append(rows[tr.Prog.Name], sweepPoint{
			MissBound:  tr.Config.Params.MissBound,
			SizeBound:  tr.Config.Params.SizeBoundBytes,
			Policy:     tr.Label,
			Comparison: summarizeComparison(tr.Cmp),
		})
	}
	return rows
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	ctx, ent := s.progressCtx(r)
	outcome := "error"
	defer func() { ent.finish(map[string]any{"outcome": outcome}) }()
	// End is first-write-wins: the deferred call closes the span on every
	// validation error return, the explicit call before RunAllCtx on the
	// success path.
	_, vsp := obs.StartSpan(ctx, "validate")
	defer vsp.End()
	var req sweepRequest
	if status, err := decodeBody(w, r, &req); status != 0 {
		writeError(w, status, "%v", err)
		return
	}
	plan, err := s.buildSweep(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	vsp.End()
	s.httpm.sweepPoints.Observe(float64(plan.points))
	results, err := exp.NewRunnerOn(s.eng, plan.scale).RunAllCtx(ctx, plan.tasks)
	if err != nil {
		outcome = "aborted"
		writeError(w, http.StatusServiceUnavailable, "sweep aborted: %v", err)
		return
	}

	resp := map[string]any{
		"points": plan.points,
		"rows":   sweepRows(results),
		"engine": s.metrics(),
	}
	outcome = "ok"
	s.attachTrace(r, resp)
	writeJSON(w, http.StatusOK, resp)
}
