package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// validName is the benchmark contract's rule for metric and workload
// names; validUnit the rule for units.
var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func better(lower bool) string {
	if lower {
		return "lower"
	}
	return "higher"
}

func TestMetricNamesValid(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(d.name) {
			t.Errorf("invalid metric name %q", d.name)
		}
		if !validUnit.MatchString(d.unit) {
			t.Errorf("%s: invalid unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !validName.MatchString(w) {
			t.Errorf("invalid workload name %q", w)
		}
	}
}

func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.lower) {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, better(d.lower))
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.lower) {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, better(d.lower))
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q) does not match %q", i, w.Name, w.Why, workloads[i])
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if f.EndToEnd[0].Name != "setup_s" {
		t.Errorf("setup_s must lead the end-to-end metrics")
	}
}

func TestEmitPrintsExactlyTheSelectedSet(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep := newReport()
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for i, d := range defs {
			rep.set(d.name, float64(i+1))
		}
		rep.set("not.a.metric", 1)
		rep.check(true, "")
		var sb strings.Builder
		rep.emit(&sb, traced)
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		var out resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Attempted != 1 || out.Failed != 0 || len(out.Metrics) != len(defs) {
			t.Fatalf("traced=%v: got %+v", traced, out)
		}
		for _, d := range defs {
			if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: %s missing or wrong unit: %+v", traced, d.name, m)
			}
		}
	}
}

func TestEmitFailsOnMissingMetric(t *testing.T) {
	rep := newReport()
	rep.check(true, "")
	var sb strings.Builder
	rep.emit(&sb, false)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	var out resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct {
		t.Fatal("a run with unmeasured metrics reported correct")
	}
}
