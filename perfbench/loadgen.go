package main

// The serve workload's load generator: seeded open-loop Poisson arrivals
// sent by at most nproc sender goroutines, one connection each. A request
// is timed from when it was due, so a stalled server charges its queue to
// every request behind it; only the generator's own lateness while idle is
// left out (and reported as lag). Jobs are submitted and then polled (the
// polls are scheduled like arrivals) and timed from submit to done.

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// failedMS is the latency recorded for a failed or refused request: it
// misses any limit.
const failedMS = 60_000

const pollEvery = 3 * time.Millisecond

// phaseResult is one fixed-rate phase of the open loop.
type phaseResult struct {
	name    string
	rate    float64
	lat     map[string][]float64 // ms from due to done, by request kind
	lag     []float64            // ms the generator itself sent late
	drainMS float64              // ms from the phase's end to its last reply
	failed  int
}

func (p *phaseResult) all() []float64 {
	var out []float64
	for _, op := range serveOps {
		out = append(out, p.lat[op]...)
	}
	return out
}

// pass reports whether a ladder step met the limit: its tail latency and
// the time its backlog took to drain are both within p99LimitMS.
func (p *phaseResult) pass() bool {
	t, _ := tail(p.all(), 99)
	return p.failed == 0 && t <= p99LimitMS && p.drainMS <= p99LimitMS
}

func (p *phaseResult) lagP99() float64 {
	t, _ := tail(p.lag, 99)
	return t
}

// ladder runs the rate ladder, each step for d: rates climb by ladderStep
// from ladderStart until a step fails. It returns the steps in order.
func (lg *loadgen) ladder(d time.Duration) []*phaseResult {
	var steps []*phaseResult
	for rate := ladderStart; rate < ladderMax; rate *= ladderStep {
		st := lg.phase(fmt.Sprintf("ladder-%.0f", rate), rate, d)
		steps = append(steps, st)
		if !st.pass() {
			break
		}
	}
	return steps
}

// maxRateFromLadder is the highest rate meeting the limit, interpolated
// on the tail latency between the highest passing step and the lowest
// failing step above it (the passing rate itself when the failure was not
// on latency). When no step passed it is half the lowest rate.
func maxRateFromLadder(steps []*phaseResult) float64 {
	var pass, fail *phaseResult
	for _, st := range steps {
		if st.pass() && (pass == nil || st.rate > pass.rate) {
			pass = st
		}
	}
	for _, st := range steps {
		if !st.pass() && (pass == nil || st.rate > pass.rate) && (fail == nil || st.rate < fail.rate) {
			fail = st
		}
	}
	switch {
	case pass == nil:
		return fail.rate / 2
	case fail == nil:
		return pass.rate
	}
	t0, _ := tail(pass.all(), 99)
	t1, _ := tail(fail.all(), 99)
	if t1 > p99LimitMS && t1 > t0 {
		return pass.rate + (p99LimitMS-t0)/(t1-t0)*(fail.rate-pass.rate)
	}
	return pass.rate
}

// item is one scheduled send: an arrival, or a poll of a submitted job.
type item struct {
	due     time.Time
	arrival time.Time // when the operation was due; latency starts here
	o       op
	jobID   string
}

type itemHeap []*item

func (h itemHeap) Len() int           { return len(h) }
func (h itemHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h itemHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)        { *h = append(*h, x.(*item)) }
func (h *itemHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

type loadgen struct {
	s        *serveBench
	u        *universe
	rng      *rand.Rand
	arrivals int
	freshPos int

	mu          sync.Mutex
	freshSeen   []op
	queueWaitMS []float64
}

func newLoadgen(s *serveBench, u *universe, rng *rand.Rand) *loadgen {
	return &loadgen{s: s, u: u, rng: rng}
}

// nextFresh reports whether the next arrival carries a never-seen key:
// exactly one at a seeded position in every block of freshEvery.
func (lg *loadgen) nextFresh() bool {
	if lg.arrivals%freshEvery == 0 {
		lg.freshPos = lg.rng.IntN(freshEvery)
	}
	fresh := lg.arrivals%freshEvery == lg.freshPos
	lg.arrivals++
	return fresh
}

// phase offers Poisson arrivals at rate for d and waits for every reply.
func (lg *loadgen) phase(name string, rate float64, d time.Duration) *phaseResult {
	res := &phaseResult{name: name, rate: rate, lat: make(map[string][]float64)}
	start := time.Now().Add(5 * time.Millisecond)
	h := &itemHeap{}
	for _, off := range poissonArrivals(lg.rng, rate, d) {
		o := lg.u.draw(lg.rng, lg.nextFresh())
		if o.fresh {
			lg.freshSeen = append(lg.freshSeen, o)
		}
		*h = append(*h, &item{due: start.Add(off), arrival: start.Add(off), o: o})
	}
	heap.Init(h)
	var (
		mu       sync.Mutex
		jobs     int // submitted jobs not yet settled
		lastDone time.Time
		wg       sync.WaitGroup
	)
	record := func(it *item, done time.Time, ok bool) {
		lat := ms(done.Sub(it.arrival))
		if !ok {
			lat = failedMS
		}
		mu.Lock()
		res.lat[it.o.kind] = append(res.lat[it.o.kind], lat)
		if !ok {
			res.failed++
		}
		if done.After(lastDone) {
			lastDone = done
		}
		mu.Unlock()
	}
	for range senders() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// waitedFor is the item this sender last slept waiting for;
			// any pop clears it.
			var waitedFor *item
			for {
				mu.Lock()
				if h.Len() == 0 {
					idle := jobs == 0
					mu.Unlock()
					if idle {
						return
					}
					time.Sleep(200 * time.Microsecond)
					continue
				}
				it := (*h)[0]
				now := time.Now()
				if wait := it.due.Sub(now); wait > 0 {
					waitedFor = it
					mu.Unlock()
					time.Sleep(min(wait, time.Millisecond))
					continue
				}
				heap.Pop(h)
				if waitedFor == it && it.jobID == "" {
					// This sender sat idle waiting for this arrival and did
					// nothing else since, so any lateness is the generator's
					// own timer slop (about a millisecond): report it as lag
					// and time the request from its send. Any other arrival
					// keeps its due time, so the server's backlog is counted.
					res.lag = append(res.lag, ms(now.Sub(it.due)))
					it.arrival = now
				}
				waitedFor = nil
				mu.Unlock()

				switch {
				case it.o.kind != "jobs":
					raw, done, err := lg.s.post(it.o)
					ok := err == nil
					if ok {
						_, ok = lg.s.settle(it.o, raw)
					} else {
						lg.s.rep.fail("%s: %v", it.o.key, err)
					}
					record(it, done, ok)
				case it.jobID == "":
					id, ok := lg.s.submit(it.o)
					if !ok {
						record(it, time.Now(), false)
						continue
					}
					mu.Lock()
					jobs++
					heap.Push(h, &item{due: time.Now().Add(pollEvery), arrival: it.arrival, o: it.o, jobID: id})
					mu.Unlock()
				default:
					raw, state, waitS, ok := lg.s.poll(it.jobID)
					done := time.Now()
					if ok && state == "" {
						mu.Lock()
						it.due = done.Add(pollEvery)
						heap.Push(h, it)
						mu.Unlock()
						continue
					}
					if ok {
						_, ok = lg.s.settle(it.o, raw)
						lg.mu.Lock()
						lg.queueWaitMS = append(lg.queueWaitMS, 1000*waitS)
						lg.mu.Unlock()
					}
					record(it, done, ok)
					mu.Lock()
					jobs--
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res.drainMS = max(ms(lastDone.Sub(start.Add(d))), 0)
	return res
}
