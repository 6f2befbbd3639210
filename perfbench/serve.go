package main

// The serve workload: cmd/driserve booted over a persist directory the
// benchmark populated beforehand, driven over HTTP by a seeded open-loop
// Poisson load generator (loadgen.go). See README.md for the request mix.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dricache/internal/dri"
	"dricache/internal/mem"
	"dricache/internal/persist"
	"dricache/internal/policy"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

// Serving scale and load shape.
const (
	serveInstrs   = 200_000
	serveInterval = 20_000
	// cacheLimit is driserve's -cachelimit: below the ~370-result key
	// working set, so evicted keys are served from the persist directory.
	cacheLimit = 128
	// freshEvery: one compare in this many arrivals carries a never-seen
	// key (stratified: one at a seeded position in every block).
	freshEvery = 30
	zipfS      = 1.0
	// rateLow and rateHigh are the fixed arrival rates (requests/s), both
	// well below capacity (about 1300 req/s on a 2-vCPU host).
	rateLow  = 150
	rateHigh = 400
	// p99LimitMS is the latency limit a ladder step must meet. Below
	// saturation the tail is a few fresh keys queued behind each other
	// (20-90 ms); a saturated step's tail is hundreds of milliseconds.
	p99LimitMS = 150
	// lagLimitMS marks a run invalid when the generator itself ran late.
	lagLimitMS = 5
)

// The rate ladder (traced runs only) climbs geometrically from ladderStart
// until a step misses the p99 limit or leaves a backlog.
const (
	ladderStart = 600.0
	ladderStep  = 1.2
	ladderMax   = 20_000.0
)

var (
	missBounds = []uint64{20, 40, 80, 160}
	sizeBounds = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10}
	runKinds   = []policy.Kind{policy.Conventional, policy.DRI, policy.Decay, policy.Drowsy, policy.WayGate, policy.WayMemo}
)

// op is one request of the mix.
type op struct {
	kind string // run, compare, sweep, jobs
	path string
	body []byte
	// key identifies the request's result for the repeat check; compares
	// and compare jobs share a key space.
	key   string
	bench string
	mb    uint64 // compare: DRI miss-bound
	sb    int    // compare: DRI size-bound
	fresh bool
}

func compareOp(bench string, mb uint64, sb int) op {
	body := fmt.Sprintf(`{"benchmark":%q,"instructions":%d,"cache":{"dri":{"missBound":%d,"sizeBoundBytes":%d,"senseInterval":%d}}}`,
		bench, serveInstrs, mb, sb, serveInterval)
	return op{kind: "compare", path: "/v1/compare", body: []byte(body), key: "compare " + body, bench: bench, mb: mb, sb: sb}
}

func runOp(bench string, k policy.Kind) op {
	pol := ""
	if k != policy.Conventional {
		pol = fmt.Sprintf(`,"policy":{"kind":%q,"intervalInstructions":%d}`, k, serveInterval)
	}
	body := fmt.Sprintf(`{"benchmark":%q,"instructions":%d,"cache":{"assoc":4}%s}`, bench, serveInstrs, pol)
	return op{kind: "run", path: "/v1/run", body: []byte(body), key: "run " + body, bench: bench}
}

func sweepOp(bench string, mbs []uint64, sbs []int) op {
	mb, _ := json.Marshal(mbs)
	sb, _ := json.Marshal(sbs)
	body := fmt.Sprintf(`{"benchmarks":[%q],"missBounds":%s,"sizeBounds":%s,"instructions":%d,"senseInterval":%d}`,
		bench, mb, sb, serveInstrs, serveInterval)
	return op{kind: "sweep", path: "/v1/sweep", body: []byte(body), key: "sweep " + body, bench: bench}
}

func jobOp(c op) op {
	return op{kind: "jobs", path: "/v1/jobs", body: []byte(`{"kind":"compare","compare":` + string(c.body) + `}`),
		key: c.key, bench: c.bench, mb: c.mb, sb: c.sb}
}

// paperOp is the shoot-out's DRI point (64K 4-way, miss-bound 1% of the
// interval, 1K size-bound) at serving scale, one per benchmark.
func paperOp(bench string) op {
	body := fmt.Sprintf(`{"benchmark":%q,"instructions":%d,"cache":{"assoc":4,"dri":{"missBound":%d,"sizeBoundBytes":1024,"senseInterval":%d}},"policy":{"kind":"dri"}}`,
		bench, serveInstrs, serveInterval/100, serveInterval)
	return op{kind: "compare", path: "/v1/compare", body: []byte(body), key: "compare " + body, bench: bench}
}

// universe is the seeded key space of one run.
type universe struct {
	compares []op // Zipf-ranked in a seeded order
	runs     []op
	sweeps   []op
	paper    []op
	zc, zr   *zipf
	nextMB   uint64 // fresh keys: miss-bounds above every grid value
}

func newUniverse(seed uint64) *universe {
	u := &universe{nextMB: 1000}
	for _, p := range trace.Benchmarks() {
		for _, mb := range missBounds {
			for _, sb := range sizeBounds {
				u.compares = append(u.compares, compareOp(p.Name, mb, sb))
			}
		}
		for _, k := range runKinds {
			u.runs = append(u.runs, runOp(p.Name, k))
		}
		for _, mbs := range [][]uint64{{20, 80}, {40, 160}} {
			for _, sbs := range [][]int{{1 << 10, 4 << 10}, {2 << 10, 8 << 10}} {
				u.sweeps = append(u.sweeps, sweepOp(p.Name, mbs, sbs))
			}
		}
		u.paper = append(u.paper, paperOp(p.Name))
	}
	r := newRand(seed, 2)
	r.Shuffle(len(u.compares), func(i, j int) { u.compares[i], u.compares[j] = u.compares[j], u.compares[i] })
	r.Shuffle(len(u.runs), func(i, j int) { u.runs[i], u.runs[j] = u.runs[j], u.runs[i] })
	u.zc, u.zr = newZipf(len(u.compares), zipfS), newZipf(len(u.runs), zipfS)
	return u
}

// draw picks the i-th arrival's request. fresh marks the stratified
// never-seen compare.
func (u *universe) draw(r *rand.Rand, fresh bool) op {
	if fresh {
		names := trace.Names()
		u.nextMB++
		o := compareOp(names[r.IntN(len(names))], u.nextMB, sizeBounds[r.IntN(len(sizeBounds))])
		o.fresh = true
		return o
	}
	switch x := r.Float64(); {
	case x < 0.80:
		return u.compares[u.zc.draw(r)]
	case x < 0.88:
		return u.runs[u.zr.draw(r)]
	case x < 0.92:
		return u.sweeps[r.IntN(len(u.sweeps))]
	default:
		return jobOp(u.compares[u.zc.draw(r)])
	}
}

// server is one driserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

type serveBench struct {
	cfg    runConfig
	w      io.Writer
	rep    *report
	dir    string
	client *http.Client
	srv    *server

	mu   sync.Mutex
	seen map[string][]byte // result bytes per key, for the repeat check
}

func runServe(cfg runConfig, w io.Writer, rep *report) error {
	if cfg.driserve == "" {
		return errors.New("-driserve is required")
	}
	dir, err := os.MkdirTemp(cfg.workDir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s := &serveBench{cfg: cfg, w: w, rep: rep, dir: dir, seen: make(map[string][]byte),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: senders(), MaxIdleConnsPerHost: senders()},
		}}
	defer func() {
		if s.srv != nil {
			s.srv.stop()
		}
	}()
	u := newUniverse(cfg.seed)
	persistDir := filepath.Join(dir, "persist")

	// Untimed preparation: populate the persist directory.
	if err := s.boot(persistDir, 0); err != nil {
		return err
	}
	prep := append(append(append(append([]op(nil), u.compares...), u.runs...), u.sweeps...), u.paper...)
	t := time.Now()
	s.closedLoop(prep)
	if err := s.srv.stop(); err != nil {
		return fmt.Errorf("stopping the preparation server: %w", err)
	}
	s.srv = nil
	fmt.Fprintf(w, "prepared %d keys in %.1f s\n", len(prep), time.Since(t).Seconds())
	// The timed phases write fresh keys into persistDir; set-up samples
	// taken after them boot over this copy of the directory as prepared.
	setupDir := filepath.Join(dir, "persist-prepared")
	if err := copyDir(persistDir, setupDir); err != nil {
		return err
	}

	// Set-up: exec until /healthz is ok over the populated directory. A
	// boot takes tens of milliseconds, so it is sampled five times before
	// the timed phases and five times after them, and one burst of host
	// load does not move the median. The last boot before the phases
	// stays up.
	var setups []float64
	bootTimed := func(dir string, keep bool) error {
		t := time.Now()
		if err := s.boot(dir, cacheLimit); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		if keep {
			return nil
		}
		err := s.srv.stop()
		s.srv = nil
		return err
	}
	for i := range 5 {
		if err := bootTimed(persistDir, i == 4); err != nil {
			return err
		}
	}

	// Timed phases.
	before, err := s.snapshot()
	if err != nil {
		return err
	}
	// Five kernel rounds before the phases and five after; their median
	// is the host's speed over the phases.
	var calibs []float64
	for range 5 {
		calibs = append(calibs, calibrate(1))
	}
	cpu0 := procCPUSeconds(s.srv.cmd.Process.Pid)
	rng := newRand(cfg.seed, 3)
	d := cfg.seconds
	lg := newLoadgen(s, u, rng)
	low := lg.phase("low", rateLow, d/2)
	high := lg.phase("high", rateHigh, d/2)
	cpu1 := procCPUSeconds(s.srv.cmd.Process.Pid)
	for range 5 {
		calibs = append(calibs, calibrate(1))
	}
	calib := median(calibs)
	fixed, err := s.snapshot()
	if err != nil {
		return err
	}
	// max_rate_rps is a per-layer metric, so only a traced run climbs the
	// ladder.
	var steps []*phaseResult
	if cfg.traced {
		steps = lg.ladder(d / 10)
	}
	// Checks after the timed phases: the paper points, repeats, and a
	// seeded sample against in-process simulations.
	eds := make(map[string]float64)
	for _, o := range u.paper {
		if raw, ok := s.do(o); ok {
			var c struct {
				RelativeED float64 `json:"relativeED"`
			}
			rep.check(json.Unmarshal(raw, &c) == nil, "paper point %s: bad comparison", o.bench)
			eds[o.bench] = c.RelativeED
		}
	}
	rep.set("paper_ed_gap", meanGap(eds))
	s.verifySample(rng, u, lg.freshSeen)
	rep.set("max_rss_mb", maxRSSMB(s.srv.cmd.Process.Pid))
	if err := s.srv.stop(); err != nil {
		return err
	}
	s.srv = nil
	for range 5 {
		if err := bootTimed(setupDir, false); err != nil {
			return err
		}
	}
	rep.set("setup_s", median(setups))
	fmt.Fprintf(w, "setup: %s\n", fmtSeconds(setups))

	// End-to-end metrics.
	for _, ph := range []*phaseResult{low, high} {
		all := ph.all()
		p99, lvl := tail(all, 99)
		rep.set("serve.lat_p50_ms."+ph.name, median(all))
		rep.set("serve.lat_p99_ms."+ph.name, p99)
		fmt.Fprintf(w, "%s: %g req/s offered, %d done, p50 %.2f ms, tail p%.1f %.2f ms, lag p50 %.3f p99 %.3f ms\n",
			ph.name, ph.rate, len(all), median(all), lvl, p99, median(ph.lag), ph.lagP99())
	}
	if cfg.traced {
		var ladder [][]string
		for _, st := range steps {
			p99, lvl := tail(st.all(), 99)
			ladder = append(ladder, []string{fmt.Sprintf("%.0f", st.rate), strconv.Itoa(len(st.all())),
				fmt.Sprintf("%.2f", p99), fmt.Sprintf("p%.1f", lvl), fmt.Sprintf("%.1f", st.drainMS),
				fmt.Sprint(st.pass())})
		}
		table(w, fmt.Sprintf("Rate ladder (limit: tail latency <= %d ms, backlog drained within it)", p99LimitMS),
			[]string{"rate/s", "done", "tail ms", "level", "drain ms", "pass"}, ladder)
		maxRate := maxRateFromLadder(steps)
		rep.set("serve.max_rate_rps", maxRate)
		fmt.Fprintf(w, "max_rate_rps %.1f (interpolated on the tail latency between the last passing and first failing step)\n", maxRate)
	}
	simInstrs := fixed.metric("sim_instructions_total") - before.metric("sim_instructions_total")
	rep.set("sim_minstr_per_ref_s", simInstrs/1e6/refSeconds(cpu1-cpu0, calib))
	rep.set("sim.minstr_per_cpu_s", simInstrs/1e6/(cpu1-cpu0))
	rep.set("calib.ns_per_iter", 1e9/calib)
	fmt.Fprintf(w, "driserve simulated %.1f Minstr in %.2f CPU s (%.2f reference s, kernel %.2f ns/iter) over the low and high phases\n",
		simInstrs/1e6, cpu1-cpu0, refSeconds(cpu1-cpu0, calib), 1e9/calib)

	lagAll := append(append([]float64(nil), low.lag...), high.lag...)
	for _, st := range steps {
		lagAll = append(lagAll, st.lag...)
	}
	lagP99, _ := tail(lagAll, 99)
	// Lag bears on the latency figures only; the end-to-end metrics (server
	// CPU, memory, set-up, accuracy) and the output checks do not depend on
	// when requests were sent.
	valid := lagP99 <= lagLimitMS
	fmt.Fprintf(w, "load generator lag p99 %.3f ms over %d sends: latency figures %s\n", lagP99, len(lagAll),
		map[bool]string{true: "valid", false: "INVALID (the generator, not the server, was late)"}[valid])

	if cfg.traced {
		s.layers(before, fixed, []*phaseResult{low, high}, persistDir, lg)
		rep.set("loadgen.lag_p99_ms", lagP99)
		rep.set("loadgen.valid", boolf(valid))
	}
	zeroBatchLayers(rep)
	return nil
}

// senders is the load generator's connection count: nproc.
func senders() int { return max(runtime.NumCPU(), 1) }

// boot starts driserve over dir and waits until /healthz reports ok.
func (s *serveBench) boot(dir string, cacheLimit int) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	logf, err := os.OpenFile(filepath.Join(s.dir, "driserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(s.cfg.driserve, "-addr", addr, "-persistdir", dir,
		"-cachelimit", strconv.Itoa(cacheLimit), "-draintimeout", "10s")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	srv := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { srv.done <- cmd.Wait() }()
	s.srv = srv
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(srv.base + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return nil
			}
		}
		select {
		case err := <-srv.done:
			return fmt.Errorf("driserve exited during start: %v (log: %s)", err, filepath.Join(s.dir, "driserve.log"))
		case <-time.After(time.Millisecond):
		}
	}
	return errors.New("driserve did not become healthy within 30 s")
}

// stop sends SIGTERM and waits for a graceful exit (SIGKILL after 20 s).
func (srv *server) stop() error {
	srv.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-srv.done:
		return err
	case <-time.After(20 * time.Second):
		srv.cmd.Process.Kill()
		<-srv.done
		return errors.New("driserve did not stop on SIGTERM")
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// closedLoop sends ops over the sender connections, each sender waiting
// for its reply (untimed preparation).
func (s *serveBench) closedLoop(ops []op) {
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for range senders() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				if i >= len(ops) {
					next.Unlock()
					return
				}
				o := ops[i]
				i++
				next.Unlock()
				s.do(o)
			}
		}()
	}
	wg.Wait()
}

// do sends one synchronous request and returns its result bytes after the
// checks: a non-2xx reply or a result that differs from an earlier reply
// for the same key counts the operation failed.
func (s *serveBench) do(o op) ([]byte, bool) {
	raw, _, err := s.post(o)
	if err != nil {
		s.rep.fail("%s %s: %v", o.kind, o.body, err)
		return nil, false
	}
	return s.settle(o, raw)
}

// post sends a synchronous request and extracts its result fields. done
// is when the reply had been read, before it is parsed.
func (s *serveBench) post(o op) (raw []byte, done time.Time, err error) {
	resp, err := s.client.Post(s.srv.base+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return nil, time.Now(), err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	done = time.Now()
	if err != nil {
		return nil, done, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, done, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, done, err
	}
	field := map[string]string{"compare": "comparison", "run": "result", "sweep": "rows"}[o.kind]
	if len(m[field]) == 0 {
		return nil, done, fmt.Errorf("reply has no %q", field)
	}
	return m[field], done, nil
}

// submit posts a job and returns its id.
func (s *serveBench) submit(o op) (string, bool) {
	req, _ := http.NewRequest(http.MethodPost, s.srv.base+o.path, bytes.NewReader(o.body))
	req.Header.Set("X-API-Key", "perfbench")
	resp, err := s.client.Do(req)
	if err != nil {
		s.rep.fail("job submit: %v", err)
		return "", false
	}
	defer resp.Body.Close()
	var v struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&v)
	if resp.StatusCode != http.StatusAccepted || derr != nil || v.Job.ID == "" {
		s.rep.fail("job submit: status %d (%v)", resp.StatusCode, derr)
		return "", false
	}
	return v.Job.ID, true
}

// poll reads a job. state is "" while it is queued or running, else its
// final state; raw is the comparison of a done job.
func (s *serveBench) poll(id string) (raw []byte, state string, waitS float64, ok bool) {
	resp, err := s.client.Get(s.srv.base + "/v1/jobs/" + id)
	if err != nil {
		s.rep.fail("job poll: %v", err)
		return nil, "", 0, false
	}
	defer resp.Body.Close()
	var v struct {
		Job struct {
			State     string  `json:"state"`
			QueueWait float64 `json:"queueWaitSeconds"`
			Error     string  `json:"error"`
			Result    struct {
				Comparison json.RawMessage `json:"comparison"`
			} `json:"result"`
		} `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK {
		s.rep.fail("job poll: status %d (%v)", resp.StatusCode, err)
		return nil, "", 0, false
	}
	switch v.Job.State {
	case "queued", "running":
		return nil, "", 0, true
	case "done":
		return v.Job.Result.Comparison, "done", v.Job.QueueWait, true
	}
	s.rep.fail("job %s ended %s: %s", id, v.Job.State, v.Job.Error)
	return nil, v.Job.State, 0, false
}

// settle runs the repeat check on a finished operation. Results are
// compared in compact form: the same fields nested in a job reply are
// indented differently than in a synchronous reply.
func (s *serveBench) settle(o op, raw []byte) ([]byte, bool) {
	var buf bytes.Buffer
	if len(raw) == 0 || json.Compact(&buf, raw) != nil {
		s.rep.fail("%s: empty or malformed result", o.key)
		return nil, false
	}
	raw = buf.Bytes()
	s.mu.Lock()
	prev, seen := s.seen[o.key]
	if !seen {
		s.seen[o.key] = raw
	}
	s.mu.Unlock()
	s.rep.check(!seen || bytes.Equal(prev, raw), "%s: result differs from an earlier reply for the same key", o.key)

	return raw, !seen || bytes.Equal(prev, raw)
}

// verifySample recomputes a seeded sample of served results in-process
// and compares them field by field.
func (s *serveBench) verifySample(r *rand.Rand, u *universe, fresh []op) {
	sample := []op{u.compares[r.IntN(len(u.compares))], u.compares[r.IntN(len(u.compares))],
		u.compares[u.zc.draw(r)], u.compares[u.zc.draw(r)]}
	if len(fresh) > 0 {
		sample = append(sample, fresh[r.IntN(len(fresh))])
	}
	for _, o := range sample {
		raw, ok := s.do(o)
		if !ok {
			continue
		}
		var got struct {
			RelativeED        float64 `json:"relativeED"`
			SlowdownPct       float64 `json:"slowdownPct"`
			AvgActiveFraction float64 `json:"avgActiveFraction"`
			ConvCycles        uint64  `json:"convCycles"`
			DRICycles         uint64  `json:"driCycles"`
		}
		p := dri.DefaultParams(serveInterval)
		p.MissBound, p.SizeBoundBytes = o.mb, o.sb
		prog, _ := trace.ByName(o.bench)
		cfg := sim.Default(dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32, Params: p}, serveInstrs).
			WithL2(mem.DefaultL2())
		want := sim.CompareSim(cfg, prog, nil)
		s.rep.check(json.Unmarshal(raw, &got) == nil &&
			got.RelativeED == want.RelativeED && got.SlowdownPct == want.SlowdownPct &&
			got.AvgActiveFraction == want.DRI.AvgActiveFraction &&
			got.ConvCycles == want.Conv.CPU.Cycles && got.DRICycles == want.DRI.CPU.Cycles,
			"%s: served comparison differs from the in-process simulation", o.key)
	}
	for _, k := range []policy.Kind{policy.Decay, policy.Drowsy, policy.WayGate, policy.WayMemo} {
		o := runOp(trace.Names()[r.IntN(len(trace.Names()))], k)
		raw, ok := s.do(o)
		if !ok {
			continue
		}
		var got struct {
			Cycles            uint64  `json:"cycles"`
			ICacheAccesses    uint64  `json:"icacheAccesses"`
			AvgActiveFraction float64 `json:"avgActiveFraction"`
		}
		// driserve builds a policy from its defaults at the server's 100K
		// sense interval and then applies the request's overrides.
		var pol policy.Config
		switch k {
		case policy.Decay:
			pol = policy.DefaultDecay(100_000)
		case policy.Drowsy:
			pol = policy.DefaultDrowsy(100_000)
		case policy.WayGate:
			pol = policy.DefaultWayGate(100_000)
		case policy.WayMemo:
			pol = policy.DefaultWayMemo(100_000)
		}
		pol.IntervalInstructions = serveInterval
		prog, _ := trace.ByName(o.bench)
		cfg := sim.Default(dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 4, AddrBits: 32}, serveInstrs).
			WithL2(mem.DefaultL2()).WithL1IPolicy(pol)
		want := sim.Run(cfg, prog)
		s.rep.check(json.Unmarshal(raw, &got) == nil && got.Cycles == want.CPU.Cycles &&
			got.ICacheAccesses == want.ICache.Accesses && got.AvgActiveFraction == want.AvgActiveFraction,
			"%s: served run differs from the in-process simulation", o.key)
	}
}

// statsSnap is one reading of driserve's /v1/stats and /metrics.
type statsSnap struct {
	stats   map[string]map[string]any
	metrics map[string]float64 // exposition samples by full series name
}

func (s *serveBench) snapshot() (statsSnap, error) {
	var snap statsSnap
	resp, err := s.client.Get(s.srv.base + "/v1/stats")
	if err != nil {
		return snap, err
	}
	err = json.NewDecoder(resp.Body).Decode(&snap.stats)
	resp.Body.Close()
	if err != nil {
		return snap, err
	}
	resp, err = s.client.Get(s.srv.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, err
	}
	snap.metrics = parseExposition(string(b))
	return snap, nil
}

// parseExposition reads Prometheus text exposition samples.
func parseExposition(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func (s statsSnap) metric(series string) float64 { return s.metrics[series] }

func (s statsSnap) stat(section, field string) float64 {
	v, _ := s.stats[section][field].(float64)
	return v
}

// histQuantile estimates quantile q of a histogram's samples between two
// snapshots from its cumulative buckets, interpolating inside a bucket.
func histQuantile(before, after statsSnap, name, labels string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	for series, v := range after.metrics {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok || !strings.Contains(rest, labels) {
			continue
		}
		i := strings.Index(rest, `le="`)
		if i < 0 {
			continue
		}
		leStr := rest[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le, err := strconv.ParseFloat(leStr, 64)
		if leStr == "+Inf" {
			le, err = 1e300, nil
		}
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before.metrics[series]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total <= 0 {
		return 0
	}
	target := q * total
	prevLE, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if b.le >= 1e300 {
				return prevLE
			}
			if b.n == prevN {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(target-prevN)/(b.n-prevN)
		}
		prevLE, prevN = b.le, b.n
	}
	return prevLE
}

// layers sets the serving path's per-layer metrics from the /v1/stats and
// /metrics deltas over the timed phases, and measures the persist layer
// in-process over a copy of the directory.
func (s *serveBench) layers(before, after statsSnap, phases []*phaseResult, dir string, lg *loadgen) {
	rep := s.rep
	delta := func(section, field string) float64 { return after.stat(section, field) - before.stat(section, field) }
	hits, misses, dedup := delta("engine", "hits"), delta("engine", "misses"), delta("engine", "deduped")
	rep.set("engine.hit_share", (hits+dedup)/max(hits+misses+dedup, 1))
	rep.set("engine.persist_hits", delta("engine", "persistHits"))
	rep.set("engine.misses", misses)
	rep.set("engine.deduped", dedup)
	for _, f := range [][2]string{{"loads", "loads"}, {"load_misses", "loadMisses"}, {"writes", "writes"},
		{"dropped_writes", "droppedWrites"}} {
		rep.set("persist."+f[0], delta("persist", f[1]))
	}
	rep.set("persist.queue_depth", after.stat("persist", "queueDepth"))
	rep.set("jobs.rejected", delta("jobs", "rejected"))
	rep.set("jobs.queue_wait_ms", median(lg.queueWaitMS))
	rep.set("runtime.gc_pause_p99_ms", 1000*histQuantile(before, after, "go_gc_pause_seconds", "", 0.99))

	var rows [][]string
	pathOf := map[string]string{"run": "/v1/run", "compare": "/v1/compare", "sweep": "/v1/sweep", "jobs": "/v1/jobs"}
	for _, op := range serveOps {
		var lat []float64
		for _, ph := range phases {
			lat = append(lat, ph.lat[op]...)
		}
		server := 1000 * histQuantile(before, after, "http_request_duration_seconds", `path="`+pathOf[op]+`"`, 0.5)
		p99, lvl := tail(lat, 99)
		rep.set("driserve.server_p50_ms."+op, server)
		rep.set("serve.lat_p50_ms."+op, median(lat))
		rep.set("serve.lat_p99_ms."+op, p99)
		rows = append(rows, []string{op, strconv.Itoa(len(lat)), fmt.Sprintf("%.2f", server),
			fmt.Sprintf("%.2f", median(lat)), fmt.Sprintf("%.2f (p%.1f)", p99, lvl)})
	}
	table(s.w, "Serve latency by request kind, low+high phases (ms; client timed from when due; jobs submit to done)",
		[]string{"kind", "samples", "server p50", "client p50", "client tail"}, rows)

	var st [][]string
	for _, sec := range []string{"engine", "persist", "trace", "jobs", "lanes"} {
		for _, f := range sortedKeys(after.stats[sec]) {
			if _, ok := after.stats[sec][f].(float64); ok {
				st = append(st, []string{sec + "." + f, fmt.Sprintf("%.0f", after.stat(sec, f)),
					fmt.Sprintf("%+.0f", delta(sec, f))})
			}
		}
	}
	table(s.w, "driserve /v1/stats over the timed phases", []string{"counter", "after", "delta"}, st)

	// persist: open a copy of the directory and load every artifact.
	cp := filepath.Join(s.dir, "persist-copy")
	if err := copyDir(dir, cp); err != nil {
		rep.fail("copying the persist dir: %v", err)
		return
	}
	t := time.Now()
	ps, err := persist.Open(persist.Config{Dir: cp})
	openS := time.Since(t).Seconds()
	rep.set("persist.open_s", openS)
	if err != nil {
		rep.fail("persist.Open: %v", err)
		return
	}
	defer ps.Close(context.Background())
	n := 0
	t = time.Now()
	for kind, sub := range map[persist.Kind]string{persist.KindResult: "results", persist.KindTrace: "traces"} {
		entries, _ := os.ReadDir(filepath.Join(cp, sub))
		for _, e := range entries {
			if key, ok := strings.CutSuffix(e.Name(), ".art"); ok {
				_, ok := ps.Load(kind, key)
				rep.check(ok, "persist.Load %s/%s failed", sub, key)
				n++
			}
		}
	}
	loadUS := float64(time.Since(t).Microseconds()) / float64(max(n, 1))
	rep.set("persist.load_us", loadUS)
	fmt.Fprintf(s.w, "\npersist: opened a %d-artifact copy in %.1f ms, %.1f us per load\n", n, 1000*openS, loadUS)
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// procCPUSeconds is a process's user+system CPU time.
func procCPUSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ
}
