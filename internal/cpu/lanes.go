// The lane executor: the per-instruction stage advance of the fused
// whole-system loop, extracted into a reusable lane so that N independent
// simulations of the *same* instruction stream can share a single decode
// (or generation) pass. A sweep evaluates one benchmark across many
// cache/policy configurations; replay-decoding the stream once and stepping
// every lane lock-step removes the per-configuration decode (and, for lanes
// with equal predictor configurations, the branch-predictor walk) from the
// sweep's critical path while keeping every lane bit-identical to running
// alone.
//
// Lanes that differ only in the L1 i-cache's miss-bound and size-bound go
// further and share one lane while their state is the same: a DRI
// controller consults those two thresholds only at a sense-interval
// boundary, so such a fork class is stepped once until the members' resize
// decisions first differ, and splits there.
package cpu

import (
	"context"
	"slices"

	"dricache/internal/bpred"
	"dricache/internal/dri"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/timeline"
)

// laneChunk is the number of decoded instructions a lane pass consumes at a
// time: a chunk of isa.DecodedInstr (8 KiB) plus per-group prediction
// outcomes stay L1-resident while each lane sweeps the whole chunk with its
// own timing state hot in registers — instead of every lane's state
// thrashing through the cache once per instruction.
const laneChunk = 256

// predOut carries one instruction's branch-prediction outcomes: mispred is
// true when a conditional branch's direction was mispredicted; tgtMiss is
// true when the BTB/RAS target of a control instruction was wrong (a fetch
// redirect at execute).
type predOut struct {
	mispred bool
	tgtMiss bool
}

// predLane holds one predictor group's per-chunk prediction outcomes for
// every lane sharing one predictor. Predictor state is purely stream-driven
// (see bpred.Predictor.Config), so lanes with equal predictor
// configurations — over the same stream — observe identical prediction
// outcomes and statistics; the leader predictor is walked once per chunk
// and its outcomes fan out to the whole group.
type predLane struct {
	bp   *bpred.Predictor
	outs [laneChunk]predOut
}

// predictChunk walks the predictor over one decoded chunk, recording each
// instruction's outcomes. The call pattern must match the solo timing model
// exactly: the BTB is consulted (and trained) for a conditional branch only
// when the direction was correctly predicted taken.
func (g *predLane) predictChunk(buf []isa.DecodedInstr) {
	bp := g.bp
	for k := range buf {
		e := &buf[k]
		var o predOut
		switch e.Cls {
		case isa.Branch:
			o.mispred = bp.PredictBranch(e.PC, e.Taken)
			o.tgtMiss = !o.mispred && e.Taken && bp.PredictTarget(e.PC, e.Target)
		case isa.Jump:
			o.tgtMiss = bp.PredictTarget(e.PC, e.Target)
		case isa.Call:
			bp.Call(e.PC + isa.InstrBytes)
			o.tgtMiss = bp.PredictTarget(e.PC, e.Target)
		case isa.Ret:
			o.tgtMiss = bp.Return(e.Target)
		}
		g.outs[k] = o
	}
}

// lane is the complete per-simulation timing state of one configuration:
// stage rings, dataflow scoreboard, fetch/commit cursors, and the lane's
// own memory hierarchy. One lane advanced by step over a decoded stream is
// the fused loop of Pipeline.Run; N lanes advanced lock-step share the
// decode.
type lane struct {
	cfg  Config
	h    *mem.Hierarchy
	pred *predLane
	rs   *rings

	fetchRing    []uint64
	dispatchRing []uint64
	commitRing   []uint64
	portAvail    []uint64
	robRing      []uint64
	lsqRing      []uint64

	fetchIdx    int
	dispatchIdx int
	commitIdx   int
	robIdx      int
	lsqIdx      int

	singlePort bool
	tick       bool

	regReady [isa.RegCount]uint64

	count     uint64 // instructions retired
	ft        uint64 // last fetch time (monotone)
	cmt       uint64 // last commit time (monotone)
	redirect  uint64 // earliest fetch time after a redirect
	curBlock  uint64
	blockMask uint64 // low BlockShift bits of a PC
	tickAccum uint64

	// memo is the lane's L1 i-cache when way memoization is enabled (nil
	// otherwise). A fetch-block transition whose target the link registers
	// already name skips mem.FetchBlock entirely — MemoHit is a pure probe —
	// and the hits accumulate locally, flushed into the cache's statistics by
	// finish. Way memoization never runs under a per-line policy or a live
	// DRI controller (policy.Apply forbids both), so a memoized hit has no
	// side effect beyond the two counters and zero latency: the bypass is
	// bit-identical to calling FetchBlock.
	memo     *dri.Cache
	memoHits uint64

	// rec, when non-nil, is the first member's interval flight recorder:
	// every time count crosses recNext at a chunk end the lane snapshots its
	// hierarchy into every member's recorder. Disabled-recorder overhead is
	// one nil check per chunk, outside the per-instruction stage advance.
	rec     *timeline.Recorder
	recNext uint64

	// members are the pipelines whose state the lane currently is: one for
	// a solo lane, the members of a fork class still together otherwise.
	// members[0] owns h.
	members []member
	// nextDecision is the instruction count at whose tick the L1 i-cache
	// controller decides next — where the members' thresholds may send them
	// different ways — or never when the lane has nothing to split.
	nextDecision uint64
	// forkedAt is the instruction count the lane was forked at (0 for a
	// lane of the original batch); resume is the chunk offset a lane forked
	// mid-chunk starts stepping from.
	forkedAt uint64
	resume   int

	res Result
}

// never is a nextDecision no instruction count reaches.
const never = ^uint64(0)

// member is one pipeline a lane simulates for: its result, recorder
// samples and final hierarchy state all come from the lane.
type member struct {
	out    int                // the pipeline's index in the RunLanes input
	h      *mem.Hierarchy     // the pipeline's own hierarchy
	rec    *timeline.Recorder // the pipeline's recorder, nil when off
	params dri.Params         // its effective L1 i-cache parameters
	// floor and blocked are the member's L1 i-cache SizeBoundHits and
	// BlockedDownsizes minus the lane hierarchy's: members whose decisions
	// differed only in which way they held the size share a lane.
	floor, blocked int64
}

// heldCounts returns what outcome o adds to SizeBoundHits and
// BlockedDownsizes.
func heldCounts(o dri.Outcome) (floor, blocked int64) {
	switch o {
	case dri.OutcomeFloor:
		return 1, 0
	case dri.OutcomeBlocked:
		return 0, 1
	}
	return 0, 0
}

// newLane builds the per-run state for one configuration over the first
// member's hierarchy, drawing the stage rings from the shared pool.
func newLane(cfg Config, tick bool, pred *predLane, members []member) *lane {
	h, rec := members[0].h, members[0].rec
	rs := getRings(&cfg)
	var memo *dri.Cache
	if ic := h.ICache(); ic.WayMemoEnabled() {
		memo = ic
	}
	var recNext uint64
	if rec != nil {
		recNext = rec.Interval()
	}
	return &lane{
		cfg:          cfg,
		h:            h,
		pred:         pred,
		rs:           rs,
		fetchRing:    rs.fetch,
		dispatchRing: rs.dispatch,
		commitRing:   rs.commit,
		portAvail:    rs.port,
		robRing:      rs.rob,
		lsqRing:      rs.lsq,
		singlePort:   cfg.MemPorts == 1,
		tick:         tick,
		curBlock:     ^uint64(0),
		blockMask:    uint64(1)<<cfg.BlockShift - 1,
		memo:         memo,
		rec:          rec,
		recNext:      recNext,
		members:      members,
		nextDecision: never,
	}
}

// stepChunk advances the lane over buf: a whole decoded chunk, or for a
// fork class the sub-range up to its next L1 i-cache decision (laneSet.step
// splits chunks there). outs holds the matching prediction outcomes — the
// lane's predLane after predictChunk over the whole chunk, sliced alike.
// The flight recorder is not sampled here but at chunk ends (chunkEnd), so
// sub-ranges do not move the samples. Per-instruction, e.Seq is the
// PC-sequentiality signal (isa.DecodedInstr.Seq: free from the replay
// encoding, one compare in the StreamChunks adapter); when the PC is
// additionally not block-aligned, the instruction provably shares the
// previous instruction's fetch block, so the block compare (and any i-cache
// traffic) is skipped without consulting curBlock. A constant-false Seq is
// always correct — it is purely an accelerator. The lane's timing state is
// staged into locals for the whole range, so the per-instruction stage
// advance runs register-to-register.
//
// NOTE: this is the timing model of runGeneric specialized to a concrete
// mem.Hierarchy and pre-walked branch prediction; keep the stage logic in
// lockstep with runGeneric line for line (the copies differ only in the
// stream/memory/predictor call sites and the block-transition fast paths,
// which fire exactly when runGeneric's `block != curBlock` is false or the
// memoized way serves the fetch at zero cost).
func (ln *lane) stepChunk(buf []isa.DecodedInstr, outs []predOut) {
	cfg := &ln.cfg
	outs = outs[:len(buf)]
	var (
		ft        = ln.ft
		cmt       = ln.cmt
		redirect  = ln.redirect
		curBlock  = ln.curBlock
		blockMask = ln.blockMask
	)
	for k := range buf {
		e := &buf[k]

		// ---- Fetch ----
		f := ft
		if redirect > f {
			f = redirect
		}
		if w := ln.fetchRing[ln.fetchIdx] + 1; w > f {
			f = w
		}
		pc := e.PC
		if !e.Seq || pc&blockMask == 0 {
			if block := pc >> cfg.BlockShift; block != curBlock {
				curBlock = block
				ln.res.FetchGroups++
				if ln.memo != nil && ln.memo.MemoHit(block) {
					ln.memoHits++
				} else if lat := ln.h.FetchBlock(block); lat > 0 {
					f += lat
					ln.res.ICacheStalls += lat
				}
			}
		}
		ln.fetchRing[ln.fetchIdx] = f
		ft = f

		// ---- Dispatch (in-order, ROB occupancy) ----
		d := f + cfg.FrontendDepth
		if w := ln.robRing[ln.robIdx] + 1; w > d {
			d = w
		}
		if w := ln.dispatchRing[ln.dispatchIdx] + 1; w > d {
			d = w
		}
		cls := e.Cls
		isMem := cls.IsMem()
		if isMem {
			if w := ln.lsqRing[ln.lsqIdx] + 1; w > d {
				d = w
			}
		}
		ln.dispatchRing[ln.dispatchIdx] = d

		// ---- Issue (dataflow + memory ports) ----
		is := d
		if e.S1 != isa.NoReg {
			if r := ln.regReady[e.S1]; r > is {
				is = r
			}
		}
		if e.S2 != isa.NoReg {
			if r := ln.regReady[e.S2]; r > is {
				is = r
			}
		}
		if isMem {
			best := 0
			if !ln.singlePort {
				for p := 1; p < cfg.MemPorts; p++ {
					if ln.portAvail[p] < ln.portAvail[best] {
						best = p
					}
				}
			}
			if ln.portAvail[best] > is {
				is = ln.portAvail[best]
			}
			ln.portAvail[best] = is + 1
		}

		// ---- Execute/complete ----
		ct := is + cfg.Latency[cls]
		switch cls {
		case isa.Load:
			ln.res.Loads++
			ct += ln.h.Load(e.MemAddr)
		case isa.Store:
			ln.res.Stores++
			ln.h.Store(e.MemAddr)
		case isa.Branch:
			ln.res.Branches++
			if o := outs[k]; o.mispred {
				ln.res.Mispredicts++
				redirect = ct + cfg.RedirectPenalty
			} else if e.Taken && o.tgtMiss {
				// Correctly predicted taken with a BTB target miss: a fetch
				// redirect at execute, like a mispredict.
				redirect = ct + cfg.RedirectPenalty
			}
		case isa.Jump, isa.Call, isa.Ret:
			if outs[k].tgtMiss {
				redirect = ct + cfg.RedirectPenalty
			}
		}
		if e.Dst != isa.NoReg {
			ln.regReady[e.Dst] = ct
		}

		// ---- Commit (in-order) ----
		c := ct + 1
		if c <= cmt {
			c = cmt
		}
		if w := ln.commitRing[ln.commitIdx] + 1; w > c {
			c = w
		}
		ln.commitRing[ln.commitIdx] = c
		ln.robRing[ln.robIdx] = c
		if isMem {
			ln.lsqRing[ln.lsqIdx] = c
			if ln.lsqIdx++; ln.lsqIdx == cfg.LSQSize {
				ln.lsqIdx = 0
			}
		}
		cmt = c

		if ln.fetchIdx++; ln.fetchIdx == cfg.FetchWidth {
			ln.fetchIdx = 0
		}
		if ln.dispatchIdx++; ln.dispatchIdx == cfg.DispatchWidth {
			ln.dispatchIdx = 0
		}
		if ln.commitIdx++; ln.commitIdx == cfg.CommitWidth {
			ln.commitIdx = 0
		}
		if ln.robIdx++; ln.robIdx == cfg.ROBSize {
			ln.robIdx = 0
		}
		ln.tickAccum++
		if ln.tick && ln.tickAccum >= cfg.TickBatch {
			ln.h.Advance(ln.tickAccum, f)
			ln.tickAccum = 0
		}
	}
	ln.ft = ft
	ln.cmt = cmt
	ln.redirect = redirect
	ln.curBlock = curBlock
	ln.count += uint64(len(buf))
}

// chunkEnd samples the flight recorder once count has crossed the next
// sampling point. It runs at decoded-chunk ends only, whatever sub-ranges
// the chunk was stepped in, so samples fall where a solo run takes them.
func (ln *lane) chunkEnd() {
	if ln.rec != nil && ln.count >= ln.recNext {
		ln.recSample()
		for ln.recNext <= ln.count {
			ln.recNext += ln.rec.Interval()
		}
	}
}

// recSample snapshots the lane's hierarchy into every member's flight
// recorder. The
// hierarchy fills the cache/policy fields; the lane overlays its own
// cursors plus any memo hits not yet flushed into the cache statistics
// (AddMemoHits counts each hit as an access too, so pending hits are added
// to both fields — the sampled totals match the end-of-run accounting
// exactly).
func (ln *lane) recSample() {
	var s timeline.Sample
	ln.h.TimelineSnapshot(&s)
	s.Instructions = ln.count
	s.Cycles = ln.cmt
	if ln.memoHits > 0 {
		s.L1IAccesses += ln.memoHits
		s.MemoHits += ln.memoHits
	}
	for _, m := range ln.members {
		m.rec.Record(s)
	}
}

// finish flushes the trailing tick batch, assembles the Result, and returns
// the lane's rings to the pool. The lane must not be stepped afterwards.
func (ln *lane) finish() Result {
	if ln.memo != nil && ln.memoHits > 0 {
		ln.memo.AddMemoHits(ln.memoHits)
		ln.memoHits = 0
	}
	if ln.tick && ln.tickAccum > 0 {
		ln.h.Advance(ln.tickAccum, ln.ft)
	}
	if ln.rec != nil {
		// Final flush after the trailing tick: the recorder folds a sample
		// at an already-recorded boundary into its last point, so the
		// series always re-aggregates exactly to the end-of-run counters.
		ln.recSample()
	}
	ln.res.Instructions = ln.count
	ln.res.Cycles = ln.cmt
	ln.res.BPredStats = ln.pred.bp.Stats()
	putRings(ln.rs)
	ln.rs = nil
	return ln.res
}

// planDecision sets nextDecision from the lane's position. Ticks fire every
// TickBatch instructions and the L1 i-cache controller decides at the first
// tick that completes another SenseInterval, so the next decision is the
// next interval end rounded up to a whole tick. A lane with one member, no
// ticker or no controller has nothing to split.
func (ln *lane) planDecision() {
	ln.nextDecision = never
	p := ln.members[0].params
	if len(ln.members) < 2 || !ln.tick || !p.Enabled {
		return
	}
	si, tb := p.SenseInterval, ln.cfg.TickBatch
	end := (ln.count/si + 1) * si
	ln.nextDecision = (end + tb - 1) / tb * tb
}

// trailingDecision reports whether the tick finish flushes completes a
// sense interval — the last decision of a run, split like the others.
func (ln *lane) trailingDecision() bool {
	if ln.nextDecision == never || ln.tickAccum == 0 {
		return false
	}
	si := ln.members[0].params.SenseInterval
	return ln.count/si > (ln.count-ln.tickAccum)/si
}

// fork returns a lane for ms in the state ln is in now: the first member's
// own hierarchy becomes a deep copy of ln's, with that member's held
// counts, and the timing state is cloned onto fresh rings.
func (ln *lane) fork(ms []member) *lane {
	h := ms[0].h
	h.CopyFrom(ln.h)
	h.ICache().AdjustHeldCounts(ms[0].floor, ms[0].blocked)
	f := new(lane)
	*f = *ln
	f.h, f.rec, f.members, f.forkedAt = h, ms[0].rec, ms, ln.count
	if ln.memo != nil {
		f.memo = h.ICache()
	}
	f.rs = getRings(&f.cfg)
	f.fetchRing, f.dispatchRing, f.commitRing = f.rs.fetch, f.rs.dispatch, f.rs.commit
	f.portAvail, f.robRing, f.lsqRing = f.rs.port, f.rs.rob, f.rs.lsq
	copy(f.fetchRing, ln.fetchRing)
	copy(f.dispatchRing, ln.dispatchRing)
	copy(f.commitRing, ln.commitRing)
	copy(f.portAvail, ln.portAvail)
	copy(f.robRing, ln.robRing)
	copy(f.lsqRing, ln.lsqRing)
	return f
}

// takeTick applies the tick withheld at a decision point and plans the
// next one. The hierarchy decides under its own parameters, which are its
// lane's members' shared outcome.
func (ln *lane) takeTick() {
	ln.h.Advance(ln.tickAccum, ln.ft)
	ln.tickAccum = 0
	ln.planDecision()
}

// laneFor validates that p has the fused whole-system shape (stream-side,
// data-side, and ticker all one concrete mem.Hierarchy, or a nil ticker)
// and returns that hierarchy. It panics otherwise: RunLanes callers
// construct the pipelines themselves, so a foreign memory model here is a
// programming error, not a runtime condition.
func laneFor(p *Pipeline) *mem.Hierarchy {
	h, ok := p.imem.(*mem.Hierarchy)
	if !ok || !p.dmemIs(h) || !p.tickIs(h) {
		panic("cpu: RunLanes requires pipelines whose memory interfaces are a single concrete mem.Hierarchy")
	}
	return h
}

// classKey identifies a fork class: pipelines whose core, predictor,
// ticker, recorder interval and hierarchy fork class (mem.Config.ForkClass)
// are equal.
type classKey struct {
	cpu  Config
	bp   bpred.Config
	tick bool
	rec  uint64
	mem  mem.Config
}

// forkClass returns p's fork class, or false when p must run alone: a
// tick longer than the sense interval can carry two decisions, and the
// second cannot be read off the state before the tick.
func forkClass(p *Pipeline, h *mem.Hierarchy) (classKey, bool) {
	if ip := h.ICache().Config().Params; ip.Enabled && ip.SenseInterval < p.cfg.TickBatch {
		return classKey{}, false
	}
	k := classKey{cpu: p.cfg, bp: p.bp.Config(), tick: p.tick != nil, mem: h.Config().ForkClass()}
	if p.rec != nil {
		k.rec = p.rec.Interval()
	}
	return k, true
}

// LaneTally reports the work of one RunLanes pass.
type LaneTally struct {
	// Forks counts lanes split off a fork class where its members' L1
	// i-cache decisions first differed.
	Forks uint64
	// SteppedInstructions counts instructions the stage model advanced,
	// summed over the lanes actually stepped. Without fork classes it is
	// the sum of the results' Instructions.
	SteppedInstructions uint64
}

// laneSet is the lanes of one RunLanes pass: one per fork class at the
// start, one more per fork.
type laneSet struct {
	preds []*predLane
	lanes []*lane
	forks uint64
}

func newLaneSet(pipes []*Pipeline) *laneSet {
	s := &laneSet{}
	byCfg := make(map[bpred.Config]*predLane, 1)
	classes := make(map[classKey]*lane, 1)
	for i, p := range pipes {
		h := laneFor(p)
		m := member{out: i, h: h, rec: p.rec, params: h.ICache().Config().Params}
		key, shared := forkClass(p, h)
		if ln := classes[key]; shared && ln != nil {
			ln.members = append(ln.members, m)
			continue
		}
		g := byCfg[p.bp.Config()]
		if g == nil {
			g = &predLane{bp: p.bp}
			byCfg[p.bp.Config()] = g
			s.preds = append(s.preds, g)
		}
		ln := newLane(p.cfg, p.tick != nil, g, []member{m})
		if shared {
			classes[key] = ln
		}
		s.lanes = append(s.lanes, ln)
	}
	for _, ln := range s.lanes {
		ln.planDecision()
	}
	return s
}

// step advances ln over buf from its resume offset, stopping at each L1
// i-cache decision inside the chunk. The decision instruction is stepped
// with its tick withheld, so the members' outcomes are read off the state
// before the decision, and decide splits the lane there.
func (s *laneSet) step(ln *lane, buf []isa.DecodedInstr) {
	outs := ln.pred.outs[:len(buf)]
	from := ln.resume
	ln.resume = 0
	for from < len(buf) {
		left := ln.nextDecision - ln.count
		if left > uint64(len(buf)-from) {
			ln.stepChunk(buf[from:], outs[from:])
			return
		}
		at := from + int(left)
		ln.stepChunk(buf[from:at-1], outs[from:at-1])
		ln.tick = false
		ln.stepChunk(buf[at-1:at], outs[at-1:at])
		ln.tick = true
		s.decide(ln, at)
		from = at
	}
}

// decide resolves the decision withheld at ln's current instruction.
// Members whose parameters lead to the same state stay together: the same
// resize, or any way of holding the size (their held counts settle in
// member.floor and member.blocked). The group holding members[0] keeps ln,
// and every other group forks a lane into its first member's hierarchy,
// copied while ln's is still undecided. Forks resume stepping the current
// chunk at offset resume. Every lane then takes the withheld tick, whose
// decision its hierarchy makes under its first member's parameters.
func (s *laneSet) decide(ln *lane, resume int) {
	ic := ln.h.ICache()
	var keys []dri.Outcome
	var groups [][]member
	var outcomes [][]dri.Outcome
	for _, m := range ln.members {
		o := ic.Outcome(m.params)
		key := o
		if o.Holds() {
			key = dri.OutcomeHold
		}
		g := slices.Index(keys, key)
		if g < 0 {
			g = len(groups)
			keys = append(keys, key)
			groups = append(groups, nil)
			outcomes = append(outcomes, nil)
		}
		groups[g] = append(groups[g], m)
		outcomes[g] = append(outcomes[g], o)
	}
	for g, ms := range groups {
		if g > 0 {
			f := ln.fork(ms)
			f.resume = resume
			f.takeTick()
			s.lanes = append(s.lanes, f)
			s.forks++
		}
		// Rebase the held counts onto the group's hierarchy, which now
		// holds its first member's.
		head := ms[0]
		hf, hb := heldCounts(outcomes[g][0])
		for i := range ms {
			f, b := heldCounts(outcomes[g][i])
			ms[i].floor += f - hf - head.floor
			ms[i].blocked += b - hb - head.blocked
		}
	}
	ln.members = groups[0]
	ln.takeTick()
}

// finish finishes every lane — splitting a decision the final tick
// completes first — and hands each member its lane's result and final
// hierarchy state, so every pipeline's hierarchy ends as a solo run's
// would under its own configuration.
func (s *laneSet) finish(n int) ([]Result, LaneTally) {
	out := make([]Result, n)
	var t LaneTally
	for i := 0; i < len(s.lanes); i++ {
		ln := s.lanes[i]
		if ln.trailingDecision() {
			s.decide(ln, 0)
		}
		res := ln.finish()
		for _, m := range ln.members {
			if m.h != ln.h {
				m.h.CopyFrom(ln.h)
				m.h.ICache().AdjustHeldCounts(m.floor, m.blocked)
			}
			out[m.out] = res
		}
		t.SteppedInstructions += ln.count - ln.forkedAt
	}
	t.Forks = s.forks
	return out, t
}

// RunLanes consumes the chunk source once and advances one lane per
// fork class in lock-step, returning the per-pipeline results in input
// order. The source is a replay cursor or, for a stream the trace store
// does not hold, an isa.StreamChunks adapter over the generator: either
// way the stream is decoded (or generated) once for all lanes. Every
// result is bit-identical to running that pipeline alone over the same
// stream; the lanes share only the immutable decoded instruction values.
//
// Pipelines whose configurations differ only in the L1 i-cache's
// miss-bound and size-bound form a fork class, stepped as one lane on the
// first member's hierarchy. At each sense-interval decision the members
// are grouped by the state the controller's outcome under their own
// parameters (dri.Cache.Outcome) leads to — one resize, or holding the
// size in any way; each group after the first continues on a fork —
// its first member's hierarchy deep-copied (mem.Hierarchy.CopyFrom) and
// the timing state cloned. At the end each member's hierarchy receives its
// lane's final state, so callers read results off every pipeline's own
// hierarchy as after a solo run.
//
// Lanes whose predictors have equal configurations additionally share one
// branch-predictor walk (the group's first predictor); prediction is
// stream-driven, so the shared outcomes and statistics are exactly those a
// solo run would compute. Every pipeline must be freshly constructed — a
// predictor that has already consumed instructions would diverge from its
// group.
func RunLanes(src isa.ChunkSource, pipes []*Pipeline) []Result {
	out, _, _ := RunLanesCtx(context.Background(), src, pipes)
	return out
}

// RunLanesCtx is RunLanes under a context, also reporting the pass's fork
// and stepping tally. Cancellation is checked once per decoded chunk —
// before the decode, so an abort never pays for another decode-plus-N-lane
// pass — and a non-cancellable context costs nothing. On cancellation
// every lane is finished (partial results, rings returned to the pool) and
// the error wraps ErrAborted with the context's cause; the partial results
// must be discarded.
func RunLanesCtx(ctx context.Context, src isa.ChunkSource, pipes []*Pipeline) ([]Result, LaneTally, error) {
	if len(pipes) == 0 {
		return nil, LaneTally{}, nil
	}
	s := newLaneSet(pipes)
	done := ctx.Done()
	var buf [laneChunk]isa.DecodedInstr
	for {
		if done != nil {
			select {
			case <-done:
				out, t := s.finish(len(pipes))
				return out, t, abortErr(ctx, out[0].Instructions)
			default:
			}
		}
		n := src.NextChunk(buf[:])
		if n == 0 {
			break
		}
		for _, g := range s.preds {
			g.predictChunk(buf[:n])
		}
		// Forks append to s.lanes and step the rest of this chunk here too.
		for i := 0; i < len(s.lanes); i++ {
			s.step(s.lanes[i], buf[:n])
		}
		for _, ln := range s.lanes {
			ln.chunkEnd()
		}
	}
	out, t := s.finish(len(pipes))
	return out, t, nil
}
