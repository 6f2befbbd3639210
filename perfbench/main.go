// Command perfbench is the repository's benchmark: it runs one named
// workload against the program's public packages (sweep, bypass) or a
// booted cmd/driserve (serve), checks that the outputs are correct, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With -trace 0 the metrics are the end-to-end set; with
// -trace 1 they are the per-layer set. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workloads are the workload names (BENCHMARK.json gives each one's
// reason; metrics_test.go keeps the two in step).
var workloads = []string{"sweep", "bypass", "serve"}

type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	driserve string // path of the driserve binary (serve)
	workDir  string // work directory for the serve workload's files
}

func main() {
	var (
		cfg     runConfig
		seconds = flag.Float64("seconds", 30, "seconds one run measures")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		trace   = flag.Int("trace", 0, "0: print the end-to-end metrics; 1: print the per-layer metrics and tables")
		probe   = flag.Bool("probe-start", false, "internal: report readiness and exit (process-start probe)")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep, bypass or serve")
	flag.StringVar(&cfg.driserve, "driserve", "", "driserve binary (serve workload)")
	flag.StringVar(&cfg.workDir, "workdir", os.TempDir(), "work directory for the serve workload's files")
	flag.Parse()
	if *probe {
		probeMain()
		return
	}
	if !slices.Contains(workloads, cfg.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n",
			cfg.workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	cfg.seed = *seed
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.traced = *trace == 1

	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, *seconds, *trace)
	rep := newReport()
	switch cfg.workload {
	case "sweep", "bypass":
		runBatch(cfg, cfg.workload == "bypass", os.Stdout, rep)
	case "serve":
		if err := runServe(cfg, os.Stdout, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
			os.Exit(1)
		}
	}
	rep.emit(os.Stdout, cfg.traced)
}

// maxRSSMB is a process's peak resident set (VmHWM) in MiB.
func maxRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// serveLayers are the per-layer metrics only the serve workload moves; the
// rest only the batch workloads move.
var serveLayers = func() []string {
	var names []string
	for _, d := range perLayer {
		switch strings.SplitN(d.name, ".", 2)[0] {
		case "persist", "jobs", "driserve", "serve", "loadgen":
			names = append(names, d.name)
		}
	}
	return append(names, "runtime.gc_pause_p99_ms")
}()

// zeroServeLayers reports 0 for the serving-path layers a batch workload
// does not touch.
func zeroServeLayers(rep *report) { rep.zeroUnset(serveLayers) }

// zeroBatchLayers reports 0 for the per-layer metrics the serve workload
// leaves unset. Layers both kinds of workload move (engine.*) keep the
// value the serve workload measured.
func zeroBatchLayers(rep *report) {
	for _, d := range perLayer {
		if !slices.Contains(serveLayers, d.name) {
			rep.zeroUnset([]string{d.name})
		}
	}
}
