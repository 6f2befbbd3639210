// Package cpu implements the out-of-order processor timing model that
// converts an instruction stream plus cache behaviour into an execution
// time. It stands in for SimpleScalar-2.0's sim-outorder with the system
// configuration of the paper's Table 1: 8-wide issue/decode, 128-entry
// reorder buffer, 128-entry load/store queue, a 2-level hybrid branch
// predictor, single-cycle L1s, a 12-cycle unified L2 and an
// 80-cycles-plus-4-per-8-bytes memory.
//
// Rather than a cycle-by-cycle structural simulation, the model is the
// standard analytical ("dataflow") out-of-order approximation: one pass over
// the dynamic instruction stream computing per-instruction fetch, dispatch,
// issue, completion, and commit timestamps, with pipeline widths enforced by
// sliding-window rings (instruction i and instruction i−W must be at least
// one cycle apart at any W-wide stage) and buffer occupancy enforced by
// requiring a freed entry from instruction i−ROB (or i−LSQ) before dispatch.
// Fetch stalls on i-cache misses and on branch mispredict redirects;
// instruction-level parallelism is bounded by true register dataflow. This
// captures exactly what the paper's evaluation measures — the execution-time
// cost of extra i-cache misses — at a small fraction of the cost of a
// structural simulator. Wrong-path fetch is not modeled (fetch waits at a
// mispredicted branch until it resolves), as noted in DESIGN.md.
package cpu

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dricache/internal/bpred"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/timeline"
)

// ErrAborted marks a run stopped mid-stream because its context was
// cancelled or its deadline expired. The returned Result is partial —
// timing state up to the last completed chunk — and must not be treated as
// a finished simulation. Errors returned by RunCtx/RunLanesCtx wrap both
// ErrAborted and the context's cancellation cause, so callers can match
// either with errors.Is.
var ErrAborted = errors.New("cpu: run aborted")

// abortErr builds the partial-abort error for a run cut short at instrs.
func abortErr(ctx context.Context, instrs uint64) error {
	return fmt.Errorf("%w after %d instructions: %w", ErrAborted, instrs, context.Cause(ctx))
}

// IMem is the instruction-fetch side of the memory hierarchy. FetchBlock is
// called once per fetch-group transition with the instruction block address
// and returns the added latency in cycles (0 for an L1 i-cache hit).
type IMem interface {
	FetchBlock(block uint64) (extraCycles uint64)
}

// DMem is the data side of the memory hierarchy. Load and Store perform the
// behavioral access and return the added latency in cycles beyond the
// 1-cycle L1 pipeline (0 for an L1 hit). Stores are buffered and do not
// stall the pipeline; their latency is accounted inside the hierarchy.
type DMem interface {
	Load(addr uint64) (extraCycles uint64)
	Store(addr uint64)
}

// Ticker receives instruction-progress callbacks for interval-based
// machinery (the DRI i-cache's sense intervals). Advance is called in
// batches with the number of instructions fetched since the last call and
// the fetch-time cycle of the most recent one.
type Ticker interface {
	Advance(instrs, nowCycles uint64)
}

// Config describes the core (Table 1 defaults via DefaultConfig).
type Config struct {
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int
	ROBSize       int
	LSQSize       int
	MemPorts      int
	// FrontendDepth is the fetch-to-dispatch depth in cycles.
	FrontendDepth uint64
	// RedirectPenalty is the added delay between a mispredicted branch's
	// resolution and the first correct-path fetch.
	RedirectPenalty uint64
	// BlockShift is log2 of the i-cache block size; fetch groups break at
	// block boundaries.
	BlockShift uint
	// Latency holds per-class execution latencies in cycles.
	Latency [isa.NumClasses]uint64
	// TickBatch is the instruction batch size for Ticker callbacks.
	TickBatch uint64
}

// DefaultConfig returns the paper's Table 1 core: 8-issue, 128-entry ROB,
// 128-entry LSQ, with conventional functional-unit latencies.
func DefaultConfig() Config {
	cfg := Config{
		FetchWidth:      8,
		DispatchWidth:   8,
		IssueWidth:      8,
		CommitWidth:     8,
		ROBSize:         128,
		LSQSize:         128,
		MemPorts:        2,
		FrontendDepth:   4,
		RedirectPenalty: 2,
		BlockShift:      5, // 32-byte i-cache blocks
		TickBatch:       64,
	}
	cfg.Latency[isa.IntALU] = 1
	cfg.Latency[isa.IntMul] = 3
	cfg.Latency[isa.FPAdd] = 2
	cfg.Latency[isa.FPMul] = 4
	cfg.Latency[isa.FPDiv] = 12
	cfg.Latency[isa.Load] = 1
	cfg.Latency[isa.Store] = 1
	cfg.Latency[isa.Branch] = 1
	cfg.Latency[isa.Jump] = 1
	cfg.Latency[isa.Call] = 1
	cfg.Latency[isa.Ret] = 1
	return cfg
}

// Check validates the configuration.
func (c Config) Check() error {
	switch {
	case c.FetchWidth < 1 || c.DispatchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1:
		return fmt.Errorf("cpu: pipeline widths must be >= 1")
	case c.ROBSize < 1:
		return fmt.Errorf("cpu: ROB size %d < 1", c.ROBSize)
	case c.LSQSize < 1:
		return fmt.Errorf("cpu: LSQ size %d < 1", c.LSQSize)
	case c.MemPorts < 1:
		return fmt.Errorf("cpu: memory ports %d < 1", c.MemPorts)
	case c.TickBatch == 0:
		return fmt.Errorf("cpu: tick batch must be >= 1")
	}
	return nil
}

// Result reports a completed run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	// Class mix and control-flow outcomes.
	Branches     uint64
	Mispredicts  uint64
	Loads        uint64
	Stores       uint64
	FetchGroups  uint64 // i-cache accesses (one per fetch-group transition)
	ICacheStalls uint64 // total fetch cycles added by i-cache misses
	BPredStats   bpred.Stats
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Pipeline is a single-core timing model. It is not safe for concurrent
// use; create one per simulation.
type Pipeline struct {
	cfg  Config
	imem IMem
	dmem DMem
	bp   *bpred.Predictor
	tick Ticker
	// rec, when non-nil, is the interval flight recorder sampled by the
	// lane executor (see lane.recSample), whatever the stream type. Only
	// the generic interface loop ignores it — it runs solely over foreign
	// memory models, which have no hierarchy to snapshot.
	rec *timeline.Recorder
}

// SetTimeline attaches an interval flight recorder to the pipeline's lane
// (in Run or RunLanes). A nil recorder — the default — costs
// nothing: the only residue is one nil check per decoded chunk.
func (p *Pipeline) SetTimeline(rec *timeline.Recorder) { p.rec = rec }

// New builds a pipeline over the given memory interfaces; ticker may be nil.
// It panics on an invalid configuration.
func New(cfg Config, imem IMem, dmem DMem, bp *bpred.Predictor, ticker Ticker) *Pipeline {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	if bp == nil {
		bp = bpred.New(bpred.DefaultConfig())
	}
	return &Pipeline{cfg: cfg, imem: imem, dmem: dmem, bp: bp, tick: ticker}
}

// Predictor exposes the branch predictor (for stats).
func (p *Pipeline) Predictor() *bpred.Predictor { return p.bp }

// rings bundles the per-run sliding-window and occupancy buffers so they
// can be pooled across runs: a sweep executes thousands of short
// simulations, and re-allocating ~2 KB of rings per run is measurable
// against the replay-store hot path.
type rings struct {
	fetch, dispatch, commit, port, rob, lsq []uint64
}

var ringPool = sync.Pool{New: func() any { return new(rings) }}

// sized returns s with exactly n zeroed elements, reusing its backing array
// when possible.
func sized(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func getRings(cfg *Config) *rings {
	r := ringPool.Get().(*rings)
	r.fetch = sized(r.fetch, cfg.FetchWidth)
	r.dispatch = sized(r.dispatch, cfg.DispatchWidth)
	r.commit = sized(r.commit, cfg.CommitWidth)
	r.port = sized(r.port, cfg.MemPorts)
	r.rob = sized(r.rob, cfg.ROBSize)
	r.lsq = sized(r.lsq, cfg.LSQSize)
	return r
}

func putRings(r *rings) { ringPool.Put(r) }

// Run consumes the stream to completion and returns timing results.
//
// When the memory interfaces are one concrete mem.Hierarchy (the
// whole-system simulation path), Run executes as a one-lane run of the lane
// executor: the stream is consumed a chunk at a time — a replay cursor
// decodes directly, any other stream (a trace generator) goes through an
// isa.StreamChunks adapter — and every memory call is direct, with no
// interface dispatch per instruction. Foreign memory models take the
// generic interface loop. Both loops implement the identical timing model;
// TestFusedMatchesGeneric and the golden suites pin them together.
func (p *Pipeline) Run(stream isa.Stream) Result {
	res, _ := p.RunCtx(context.Background(), stream)
	return res
}

// RunCtx is Run under a context. Cancellation is checked once per
// 256-instruction chunk boundary — never inside the per-instruction stage
// advance — and a non-cancellable context (Done() == nil, e.g.
// context.Background) costs nothing at all: the check is hoisted out
// entirely. On cancellation the partial Result accumulated so far is
// returned together with an error wrapping ErrAborted and the context's
// cause; callers must discard the Result as unfinished.
func (p *Pipeline) RunCtx(ctx context.Context, stream isa.Stream) (Result, error) {
	if h, ok := p.imem.(*mem.Hierarchy); ok && p.dmemIs(h) && p.tickIs(h) {
		// The one-lane case of the lane executor (lanes.go).
		out, _, err := RunLanesCtx(ctx, isa.ChunksOf(stream), []*Pipeline{p})
		return out[0], err
	}
	return p.runGeneric(ctx, stream)
}

func (p *Pipeline) dmemIs(h *mem.Hierarchy) bool {
	hd, ok := p.dmem.(*mem.Hierarchy)
	return ok && hd == h
}

// tickIs reports whether the ticker is absent or the same hierarchy, the
// two shapes the fused loop handles.
func (p *Pipeline) tickIs(h *mem.Hierarchy) bool {
	if p.tick == nil {
		return true
	}
	ht, ok := p.tick.(*mem.Hierarchy)
	return ok && ht == h
}

// runGeneric is the interface-dispatched loop. RunCtx reaches it only for
// foreign (non-mem.Hierarchy) memory models — the cpu unit tests'
// fixed-latency fakes — and it stays the reference implementation the
// fused-vs-generic suites compare the lane executor against. Cancellation
// is polled at the same 256-instruction cadence as the lane's chunk
// boundaries; with a non-cancellable context the poll compiles down to one
// never-taken branch per instruction.
//
// NOTE: runGeneric and lane.stepChunk (lanes.go) must implement the
// identical timing model line for line; any change to one must be mirrored
// in the other (the lane copy differs only in its stream/memory/predictor
// call sites).
func (p *Pipeline) runGeneric(ctx context.Context, stream isa.Stream) (Result, error) {
	cfg := p.cfg
	rs := getRings(&cfg)
	defer putRings(rs)
	done := ctx.Done()
	var (
		res Result

		// Sliding-window width rings for the in-order stages (their times
		// are monotone, so "instruction i and i−W at least one cycle
		// apart" enforces the width exactly): entry i%W holds the stage
		// time of instruction i−W. Issue is out-of-order — younger
		// independent instructions legitimately issue before stalled older
		// ones — so no program-order window applies there; sustained issue
		// throughput is already capped by the dispatch width.
		fetchRing    = rs.fetch
		dispatchRing = rs.dispatch
		commitRing   = rs.commit
		// Memory ports are modeled as earliest-available-port greedy
		// assignment.
		portAvail = rs.port

		// Occupancy rings: commit time of instruction i−ROB (must have
		// freed its entry before i can dispatch), and of memory op j−LSQ.
		robRing = rs.rob
		lsqRing = rs.lsq

		// Ring cursors: each stage ring is walked with a wrapping index
		// (slot i mod size) instead of per-instruction 64-bit modulos —
		// six hardware divides per instruction otherwise.
		fetchIdx, dispatchIdx, commitIdx, robIdx, lsqIdx int
		// The base core has MemPorts == 1 or 2; skip the port scan when
		// there is nothing to scan.
		singlePort = cfg.MemPorts == 1

		regReady [isa.RegCount]uint64

		i        uint64 // instruction index
		ft       uint64 // last fetch time (monotone)
		cmt      uint64 // last commit time (monotone)
		redirect uint64 // earliest fetch time after a redirect
		curBlock = ^uint64(0)

		tickAccum uint64
		ins       isa.Instr
	)

	for stream.Next(&ins) {
		if done != nil && i&(laneChunk-1) == 0 {
			select {
			case <-done:
				res.Instructions = i
				res.Cycles = cmt
				res.BPredStats = p.bp.Stats()
				return res, abortErr(ctx, i)
			default:
			}
		}
		// ---- Fetch ----
		f := ft
		if redirect > f {
			f = redirect
		}
		if w := fetchRing[fetchIdx] + 1; w > f {
			f = w
		}
		if block := ins.PC >> cfg.BlockShift; block != curBlock {
			curBlock = block
			res.FetchGroups++
			if lat := p.imem.FetchBlock(block); lat > 0 {
				f += lat
				res.ICacheStalls += lat
			}
		}
		fetchRing[fetchIdx] = f
		ft = f

		// ---- Dispatch (in-order, ROB occupancy) ----
		d := f + cfg.FrontendDepth
		if w := robRing[robIdx] + 1; w > d {
			d = w
		}
		if w := dispatchRing[dispatchIdx] + 1; w > d {
			d = w
		}
		isMem := ins.Class.IsMem()
		if isMem {
			if w := lsqRing[lsqIdx] + 1; w > d {
				d = w
			}
		}
		dispatchRing[dispatchIdx] = d

		// ---- Issue (dataflow + memory ports) ----
		is := d
		if ins.Src1 != isa.NoReg {
			if r := regReady[ins.Src1]; r > is {
				is = r
			}
		}
		if ins.Src2 != isa.NoReg {
			if r := regReady[ins.Src2]; r > is {
				is = r
			}
		}
		if isMem {
			// Earliest-available memory port.
			best := 0
			if !singlePort {
				for p := 1; p < cfg.MemPorts; p++ {
					if portAvail[p] < portAvail[best] {
						best = p
					}
				}
			}
			if portAvail[best] > is {
				is = portAvail[best]
			}
			portAvail[best] = is + 1
		}

		// ---- Execute/complete ----
		ct := is + cfg.Latency[ins.Class]
		switch ins.Class {
		case isa.Load:
			res.Loads++
			ct += p.dmem.Load(ins.MemAddr)
		case isa.Store:
			res.Stores++
			p.dmem.Store(ins.MemAddr)
		case isa.Branch:
			res.Branches++
			if p.bp.PredictBranch(ins.PC, ins.Taken) {
				res.Mispredicts++
				redirect = ct + cfg.RedirectPenalty
			} else if ins.Taken {
				// Correctly predicted taken: target from BTB; a BTB miss
				// redirects at execute like a mispredict.
				if p.bp.PredictTarget(ins.PC, ins.Target) {
					redirect = ct + cfg.RedirectPenalty
				}
			}
		case isa.Jump:
			if p.bp.PredictTarget(ins.PC, ins.Target) {
				redirect = ct + cfg.RedirectPenalty
			}
		case isa.Call:
			p.bp.Call(ins.PC + isa.InstrBytes)
			if p.bp.PredictTarget(ins.PC, ins.Target) {
				redirect = ct + cfg.RedirectPenalty
			}
		case isa.Ret:
			if p.bp.Return(ins.Target) {
				redirect = ct + cfg.RedirectPenalty
			}
		}
		if ins.Dst != isa.NoReg {
			regReady[ins.Dst] = ct
		}

		// ---- Commit (in-order) ----
		c := ct + 1
		if c <= cmt {
			c = cmt
		}
		if w := commitRing[commitIdx] + 1; w > c {
			c = w
		}
		commitRing[commitIdx] = c
		robRing[robIdx] = c
		if isMem {
			lsqRing[lsqIdx] = c
			if lsqIdx++; lsqIdx == cfg.LSQSize {
				lsqIdx = 0
			}
		}
		cmt = c

		i++
		if fetchIdx++; fetchIdx == cfg.FetchWidth {
			fetchIdx = 0
		}
		if dispatchIdx++; dispatchIdx == cfg.DispatchWidth {
			dispatchIdx = 0
		}
		if commitIdx++; commitIdx == cfg.CommitWidth {
			commitIdx = 0
		}
		if robIdx++; robIdx == cfg.ROBSize {
			robIdx = 0
		}
		tickAccum++
		if p.tick != nil && tickAccum >= cfg.TickBatch {
			p.tick.Advance(tickAccum, f)
			tickAccum = 0
		}
	}
	if p.tick != nil && tickAccum > 0 {
		p.tick.Advance(tickAccum, ft)
	}

	res.Instructions = i
	res.Cycles = cmt
	res.BPredStats = p.bp.Stats()
	return res, nil
}
