package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricDef declares one reported metric. The end-to-end set is what a run
// with -trace 0 prints; the per-layer set is what a run with -trace 1
// prints. Both sets must match BENCHMARK.json exactly (metrics_test.go).
type metricDef struct {
	name  string
	unit  string
	lower bool // lower is better
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them; README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"sim_minstr_per_ref_s", "Minstr/ref-s", false},
	{"max_rss_mb", "MB", true},
	{"paper_ed_gap", "ratio", true},
}

// serveOps are the request kinds of the serve workload's mix.
var serveOps = []string{"run", "compare", "sweep", "jobs"}

// perLayer lists the single-layer metrics of a traced run. A layer that
// does no work on a workload reports 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		// Study latency (batch workloads): single-benchmark studies at low
		// load, whole-suite passes at high load.
		{"exp.study_p50_ms", "ms", true},
		{"exp.study_p99_ms", "ms", true},
		{"exp.pass_p50_ms", "ms", true},
		{"exp.pass_p99_ms", "ms", true},
		// Cost table rows (batch workloads); they sum to tracing.pass_s.
		{"exp.self_s", "s", true},
		{"engine.self_s", "s", true},
		{"sim.self_s", "s", true},
		{"isa.decode_s", "s", true},
		{"cpu.self_s", "s", true},
		{"trace.gen_s", "s", true},
		{"remainder_s", "s", true},
		{"tracing.pass_s", "s", true},
		{"tracing.overhead_s", "s", true},
		{"sim.lanes_s", "s", true},
		{"engine.lanes.batches", "count", false},
		{"engine.lanes.per_batch", "count", false},
		{"engine.lanes.decode_saved", "count", false},
		{"engine.lanes.fallbacks", "count", true},
		{"isa.decode_ns_per_instr", "ns", true},
		{"cpu.lane_ns_per_lane_instr", "ns", true},
		{"trace.record_s", "s", true},
		{"trace.gen_ns_per_instr", "ns", true},
		{"sim.generic_ns_per_instr", "ns", true},
		{"trace.hits", "count", false},
		{"trace.misses", "count", true},
		{"trace.bypasses", "count", true},
		{"trace.bytes", "B", true},
		{"runtime.alloc_mb_per_pass", "MB", true},
		{"runtime.gc_per_pass", "count", true},
		{"runtime.gc_pause_ms", "ms", true},
		{"runtime.alloc_bimodal", "bool", true},
		// Host speed (every workload): the raw rate behind
		// sim_minstr_per_ref_s and the calibration kernel's speed.
		{"sim.minstr_per_cpu_s", "Minstr/s", false},
		{"calib.ns_per_iter", "ns", true},
		// Simulated fingerprints: exact repeats, moved only by a model change.
		{"sim.instructions", "count", false},
		{"sim.cycles", "count", true},
		{"mem.l1i_accesses", "count", true},
		{"mem.l1i_misses", "count", true},
		{"dri.avg_active_fraction", "ratio", true},
		{"policy.memo_hit_share", "ratio", false},
		{"exp.fig3_mean_ed", "ratio", true},
		{"exp.policy_mean_ed", "ratio", true},
		// Serving path.
		{"engine.hit_share", "ratio", false},
		{"engine.persist_hits", "count", false},
		{"engine.misses", "count", true},
		{"engine.deduped", "count", false},
		{"persist.loads", "count", false},
		{"persist.load_misses", "count", true},
		{"persist.writes", "count", true},
		{"persist.dropped_writes", "count", true},
		{"persist.queue_depth", "count", true},
		{"persist.open_s", "s", true},
		{"persist.load_us", "us", true},
		{"jobs.queue_wait_ms", "ms", true},
		{"jobs.rejected", "count", true},
		{"runtime.gc_pause_p99_ms", "ms", true},
		{"serve.lat_p50_ms.low", "ms", true},
		{"serve.lat_p99_ms.low", "ms", true},
		{"serve.lat_p50_ms.high", "ms", true},
		{"serve.lat_p99_ms.high", "ms", true},
		{"serve.max_rate_rps", "1/s", false},
		{"loadgen.lag_p99_ms", "ms", true},
		{"loadgen.valid", "bool", false},
	}
	for _, op := range serveOps {
		d = append(d,
			metricDef{"driserve.server_p50_ms." + op, "ms", true},
			metricDef{"serve.lat_p50_ms." + op, "ms", true},
			metricDef{"serve.lat_p99_ms." + op, "ms", true})
	}
	return d
}()

// report collects one run's metrics and output checks. It is safe for
// concurrent use.
type report struct {
	mu        sync.Mutex
	values    map[string]float64
	attempted int
	failed    int
	notes     []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// zeroUnset reports 0 for each named metric the workload has not set.
func (r *report) zeroUnset(names []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		if _, ok := r.values[n]; !ok {
			r.values[n] = 0
		}
	}
}

// check counts one verified operation; a false ok counts it failed and
// records why.
func (r *report) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// fail counts one attempted operation that failed.
func (r *report) fail(format string, args ...any) { r.check(false, format, args...) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the human-readable metric table and then, as the last line,
// the JSON result holding exactly the metrics of the selected set. A
// metric the workload did not set is a benchmark bug and fails the run.
func (r *report) emit(w io.Writer, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if r.attempted == 0 {
		r.fail("no operation was checked")
	}
	out := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricOut, len(defs))}
	fmt.Fprintf(w, "error_share %.6f (%d failed / %d attempted)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "FAILED: %s\n", n)
	}
	missing := 0
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "FAILED: metric %s not measured\n", d.name)
			missing++
			continue
		}
		dir := "higher is better"
		if d.lower {
			dir = "lower is better"
		}
		fmt.Fprintf(w, "%-34s %16.6f %-9s (%s)\n", d.name, v, d.unit, dir)
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	out.Correct = r.failed == 0 && missing == 0
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// table prints rows under a title and a header, columns aligned.
func table(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n%s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
