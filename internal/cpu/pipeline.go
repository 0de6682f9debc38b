package cpu

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// entryState tracks an RUU entry through the pipeline back end.
type entryState uint8

const (
	stateWaiting entryState = iota // operands outstanding
	stateReady                     // operands available, not yet issued
	stateIssued                    // executing
	stateDone                      // result available
)

// Locality-event bits of one access. The index they form selects from
// the pipeline's per-config fetch-stall and load-latency tables.
const (
	missL1  = 1 << iota // missed in the L1
	missL2              // ... and in the unified L2
	missTLB             // missed in the TLB

	missCombos = 8
)

// iFlagMiss and dFlagMiss convert a trace record's pre-assigned I-side
// and D-side locality flags to a miss index. trace.Flags holds each
// side's events in missIndex's bit order (I-side in bits 0..2, D-side
// in bits 3..5), so the conversion is a shift and a mask.
func iFlagMiss(f trace.Flags) uint8 { return uint8(f) & (missCombos - 1) }
func dFlagMiss(f trace.Flags) uint8 { return uint8(f>>3) & (missCombos - 1) }

// missIndex packs one access's locality events.
func missIndex(l1, l2, tlb bool) uint8 {
	var m uint8
	if l1 {
		m |= missL1
	}
	if l2 {
		m |= missL2
	}
	if tlb {
		m |= missTLB
	}
	return m
}

// waiterRef names a dependent RUU entry; gen guards against the slot
// having been squashed and reused since the dependency was recorded.
type waiterRef struct {
	slot int32
	gen  uint32
}

// ruuEntry holds what the back end needs of an instruction after
// dispatch; everything else is read from the stream at fetch and
// dispatch time.
type ruuEntry struct {
	pos        uint64 // stream position
	completeAt uint64
	effAddr    uint64      // data address (live D-side model)
	waiters    []waiterRef // RUU entries waiting on this result
	outcome    bpred.Outcome
	waitCount  int32
	gen        uint32
	flags      trace.Flags // pre-assigned locality events
	class      isa.Class
	state      entryState
	dMiss      uint8 // data-access locality events (missL1|missL2|missTLB)
	taken      bool
	wrongPath  bool
	isMem      bool
	active     bool
}

type ifqEntry struct {
	pos       uint64
	outcome   bpred.Outcome
	wrongPath bool
}

type depRec struct {
	pos  uint64
	slot int32
	gen  uint32
	used bool
}

// Pipeline stages that charge a stall counter on a cycle in which they
// move nothing (writeback has no stall causes).
const (
	stageFetch = iota
	stageDispatch
	stageIssue
	stageCommit
	numStallStages
)

// watchdogCycles is the forward-progress bound: a run that commits
// nothing for this many cycles panics.
const watchdogCycles = 1_000_000

// Pipeline is one simulation instance. It is single-use: construct,
// Run, read the Result. Finalize hands the run's working set (runBufs)
// to the next pipeline, so a finished pipeline cannot be stepped again.
type Pipeline struct {
	cfg  Config
	cur  *trace.Cursor // the stream, read in place by position
	bufs *runBufs      // the recycled working set, nil once Finalize returned it

	// Per-config constants, computed once at construction.
	fetchWidth int
	fetchStall [missCombos]int // fetch stall in cycles, by I-side miss index
	loadLat    [missCombos]int // load latency in cycles, by D-side miss index

	// Live locality models. Execution-driven mode sets all of them;
	// plain trace mode sets none; the synthetic-address mode
	// (Config.SimulateDCache) sets only dHier, keeping I-side and
	// branch events flag-driven.
	iHier *cache.Hierarchy
	dHier *cache.Hierarchy
	pred  *bpred.Predictor

	// RUU ring.
	ruu     []ruuEntry
	ruuHead int
	ruuLen  int

	// IFQ ring.
	ifq     []ifqEntry
	ifqHead int
	ifqLen  int

	lsqLen int

	// In-flight producer records, indexed by stream position modulo
	// len(deps). RUU positions are contiguous, so a producer still in
	// flight is fewer than RUUSize positions behind any consumer, and
	// no position that could overwrite its record is in between: a
	// power of two >= RUUSize entries suffices.
	deps    []depRec
	depMask uint64
	ready   []int32

	// Completion wheel: wheel[c & wheelMask] holds the entries whose
	// results become available at cycle c, so writeback touches only
	// completing entries instead of scanning the RUU every cycle.
	// wheelBits marks the non-empty slots, so the idle-cycle skip finds
	// the next completion without scanning the slots.
	wheel     [][]waiterRef
	wheelBits []uint64
	wheelMask uint64

	// Functional-unit pools: busy-until cycle per unit instance.
	fuIntALU, fuLS, fuFPAdd, fuIntMul, fuFPMul []uint64

	cycle       uint64
	cycleBase   uint64 // cycle at which statistics last reset (warmup)
	fetchPos    uint64
	fetchResume uint64
	wrongPath   bool // fetch is currently delivering wrong-path instructions
	streamEnd   bool
	halted      bool   // stream exhausted and pipeline drained
	warmLeft    uint64 // instructions still to commit before stats reset

	// Forward-progress guard state (persisted across partial runs so a
	// lockstep-driven pipeline behaves exactly like a monolithic Run).
	lastCommitCycle uint64
	lastCommitted   uint64

	// stalled records, per stage, the stall counter the current cycle
	// charged (nil if the stage moved or charged none), so an idle-cycle
	// skip charges the skipped cycles to the same counters.
	stalled [numStallStages]*uint64
	// stepEveryCycle disables idle-cycle skipping. Only in-package tests
	// set it, to keep one-cycle stepping as the reference the skip is
	// checked against.
	stepEveryCycle bool
	skipped        uint64 // cycles fast-forwarded by skipIdle (for tests)

	res       Result
	occRUUSum uint64
	occLSQSum uint64
	occIFQSum uint64
}

// NewExecutionDriven builds the reference simulator: locality events
// are computed live from fresh cache and branch-predictor models.
func NewExecutionDriven(cfg Config, src trace.Source) *Pipeline {
	p := newPipeline(cfg, trace.NewSpool(src).NewCursor())
	if !cfg.PerfectCaches {
		h := cache.NewHierarchy(cfg.Hier)
		p.iHier, p.dHier = h, h
	}
	if !cfg.PerfectBpred {
		p.pred = bpred.New(cfg.Bpred)
	}
	return p
}

// NewTraceDriven builds the synthetic-trace simulator: locality events
// are taken from the pre-assigned per-instruction flags (§2.3). With
// Config.SimulateDCache set and a trace carrying synthetic addresses,
// the data side of the hierarchy is simulated live instead, so cache
// configurations other than the profiled one can be evaluated.
func NewTraceDriven(cfg Config, src trace.Source) *Pipeline {
	return NewTraceDrivenCursor(cfg, trace.NewSpool(src).NewCursor())
}

// NewTraceDrivenCursor is NewTraceDriven over one cursor of a shared
// trace.Spool: the pipeline reads the stream in place and releases it
// as it commits, so many pipelines can share one materialised window
// (the lockstep batch driver). The cursor must be fresh and belongs to
// the pipeline, which closes it in Finalize.
func NewTraceDrivenCursor(cfg Config, cur *trace.Cursor) *Pipeline {
	p := newPipeline(cfg, cur)
	if cfg.SimulateDCache && !cfg.PerfectCaches {
		p.dHier = cache.NewHierarchy(cfg.Hier)
	}
	return p
}

func newPipeline(cfg Config, cur *trace.Cursor) *Pipeline {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// The wheel must cover the largest possible result latency: the
	// worst memory path plus slack for non-pipelined FU occupancy.
	wheelSize := 64
	for wheelSize <= cfg.Hier.MemLatency+cfg.Hier.TLBMissLatency+64 {
		wheelSize <<= 1
	}
	depSize := 1
	for depSize < cfg.RUUSize {
		depSize <<= 1
	}
	b := runPool.Get().(*runBufs)
	b.reset(cfg.RUUSize, cfg.IFQSize, depSize, wheelSize)
	p := &Pipeline{
		cfg:        cfg,
		cur:        cur,
		bufs:       b,
		fetchWidth: cfg.FetchWidth(),
		warmLeft:   cfg.WarmupInsts,
		ruu:        b.ruu,
		ifq:        b.ifq,
		deps:       b.deps,
		depMask:    uint64(depSize - 1),
		ready:      b.ready,
		wheel:      b.wheel,
		wheelBits:  b.wheelBits,
		wheelMask:  uint64(wheelSize - 1),
		fuIntALU:   make([]uint64, cfg.IntALUs),
		fuLS:       make([]uint64, cfg.LoadStore),
		fuFPAdd:    make([]uint64, cfg.FPAdders),
		fuIntMul:   make([]uint64, cfg.IntMulDivs),
		fuFPMul:    make([]uint64, cfg.FPMulDivs),
	}
	for m := range missCombos {
		l1, l2, tlb := m&missL1 != 0, m&missL2 != 0, m&missTLB != 0
		p.fetchStall[m] = cfg.Hier.FetchStall(l1, l2, tlb)
		p.loadLat[m] = cfg.Hier.LoadLatency(l1, l2, tlb)
	}
	return p
}

// runBufs is the working set of one run: the RUU with each entry's
// waiter list, the IFQ, the dependency table, the ready list and the
// completion wheel's slots and bitmap. Finalize returns it to runPool
// and the next pipeline takes it, keeping the capacity its waiter
// lists and wheel slots grew to, instead of growing them again.
type runBufs struct {
	ruu       []ruuEntry
	ifq       []ifqEntry
	deps      []depRec
	ready     []int32
	wheel     [][]waiterRef
	wheelBits []uint64
}

var runPool = sync.Pool{New: func() any { return new(runBufs) }}

// reset sizes b for one run and puts it in exactly a fresh pipeline's
// state: zeroed RUU entries (generation counters included) with empty
// waiter lists, a zeroed IFQ and dependency table, an empty ready list
// and empty wheel slots with their bits clear. Only the capacity of the
// lists survives.
func (b *runBufs) reset(ruuSize, ifqSize, depSize, wheelSize int) {
	b.ruu = resize(b.ruu, ruuSize)
	for i := range b.ruu {
		b.ruu[i] = ruuEntry{waiters: b.ruu[i].waiters[:0]}
	}
	b.wheel = resize(b.wheel, wheelSize)
	for i := range b.wheel {
		b.wheel[i] = b.wheel[i][:0]
	}
	b.ifq = resize(b.ifq, ifqSize)
	clear(b.ifq)
	b.deps = resize(b.deps, depSize)
	clear(b.deps)
	b.wheelBits = resize(b.wheelBits, wheelSize/64)
	clear(b.wheelBits)
	b.ready = b.ready[:0]
}

// resize returns s with length n, keeping its elements (and growing
// its capacity) as needed; the caller resets them.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = slices.Grow(s[:cap(s)], n-cap(s))
	}
	return s[:n]
}

// scheduleCompletion registers an issued entry on the completion wheel.
func (p *Pipeline) scheduleCompletion(slot int32, en *ruuEntry) {
	d := en.completeAt - p.cycle
	if d >= uint64(len(p.wheel)) {
		panic(fmt.Sprintf("cpu: latency %d exceeds completion wheel (%d)", d, len(p.wheel)))
	}
	idx := en.completeAt & p.wheelMask
	p.wheel[idx] = append(p.wheel[idx], waiterRef{slot: slot, gen: en.gen})
	p.wheelBits[idx>>6] |= 1 << (idx & 63)
}

// nextCompletion returns the first cycle at or after the current one
// whose wheel slot holds entries. Every pending completion lies less
// than one wheel revolution ahead (scheduleCompletion enforces it, and
// writeback empties each slot on its cycle), so the first marked slot
// found scanning forward from the current one, wrapping once, is the
// earliest.
func (p *Pipeline) nextCompletion() (uint64, bool) {
	start := p.cycle & p.wheelMask
	w := start >> 6
	word := p.wheelBits[w] &^ (1<<(start&63) - 1)
	for range len(p.wheelBits) + 1 {
		if word != 0 {
			idx := w<<6 | uint64(bits.TrailingZeros64(word))
			return p.cycle + (idx-start)&p.wheelMask, true
		}
		if w++; w == uint64(len(p.wheelBits)) {
			w = 0
		}
		word = p.wheelBits[w]
	}
	return 0, false
}

// Run simulates until the source is exhausted and the pipeline drains,
// returning the accumulated statistics.
func (p *Pipeline) Run() Result {
	p.RunToFetch(^uint64(0))
	return p.Finalize()
}

// step advances the pipeline by one cycle — or, after a cycle in which
// no stage moved, to the next cycle at which something can happen (see
// skipIdle) — and reports whether the run has drained (stream
// exhausted, windows empty). It is the one kernel shared by Run and the
// lockstep batch driver; how far a step advances depends only on
// pipeline state, so a pipeline advanced in segments executes the
// identical cycle sequence as a monolithic run.
func (p *Pipeline) step() bool {
	committed := p.commit()
	completed := p.writeback()
	issued := p.issue()
	dispatched := p.dispatch()
	fetched := p.fetch()

	p.occRUUSum += uint64(p.ruuLen)
	p.occLSQSum += uint64(p.lsqLen)
	p.occIFQSum += uint64(p.ifqLen)
	p.cycle++

	if p.streamEnd && p.ruuLen == 0 && p.ifqLen == 0 {
		return true
	}
	// Deadlock guard: the pipeline must make forward progress.
	if p.res.Instructions != p.lastCommitted {
		p.lastCommitted = p.res.Instructions
		p.lastCommitCycle = p.cycle
	} else if p.cycle-p.lastCommitCycle > watchdogCycles {
		panic(fmt.Sprintf("cpu: no commit for 1M cycles at cycle %d (ruu=%d ifq=%d)",
			p.cycle, p.ruuLen, p.ifqLen))
	}
	if committed|issued|dispatched|fetched == 0 && !completed && !p.stepEveryCycle {
		p.skipIdle()
	}
	return false
}

// skipIdle fast-forwards over the cycles that would repeat the idle
// cycle just stepped. With nothing committed, completed, issued,
// dispatched or fetched, the pipeline's state is what it was when that
// cycle began (fetch may have noted the end of the stream, and issue
// dropped squashed ready-list entries; neither changes what a later
// cycle does), so every following cycle moves nothing and charges the
// same stall counters — until one of the timed events the stages
// compare the cycle against comes due: the next occupied completion
// wheel slot, the end of a fetch penalty (fetchResume), a busy
// functional unit freeing up when issue stalled on busy units, or the
// cycle at which the forward-progress watchdog fires. An event at
// cycle t means cycle t is stepped; the cycles before it are accounted
// in bulk, exactly as one-cycle stepping would have counted them.
//
// (With today's unit model a busy unit frees on the cycle its own
// result reaches the wheel, so the unit event never comes first; it is
// kept so the skip does not depend on that coincidence.)
func (p *Pipeline) skipIdle() {
	next := p.lastCommitCycle + watchdogCycles
	if t, ok := p.nextCompletion(); ok && t < next {
		next = t
	}
	if p.fetchResume >= p.cycle && p.fetchResume < next {
		next = p.fetchResume
	}
	if p.stalled[stageIssue] == &p.res.Pipe.Stall.IssueFUBusy {
		for _, pool := range [...][]uint64{p.fuIntALU, p.fuLS, p.fuFPAdd, p.fuIntMul, p.fuFPMul} {
			for _, busy := range pool {
				if busy >= p.cycle && busy < next {
					next = busy
				}
			}
		}
	}
	if next <= p.cycle {
		return
	}
	k := next - p.cycle
	p.res.Pipe.Fetch[0] += k
	p.res.Pipe.Dispatch[0] += k
	p.res.Pipe.Issue[0] += k
	p.res.Pipe.Commit[0] += k
	for _, c := range p.stalled {
		if c != nil {
			*c += k
		}
	}
	p.occRUUSum += uint64(p.ruuLen) * k
	p.occLSQSum += uint64(p.lsqLen) * k
	p.occIFQSum += uint64(p.ifqLen) * k
	p.cycle = next
	p.skipped += k
}

// stall charges one zero-throughput cycle of stage to counter c and
// remembers the choice for skipIdle.
func (p *Pipeline) stall(stage int, c *uint64) {
	*c++
	p.stalled[stage] = c
}

// RunToFetch advances the pipeline until its fetch frontier reaches
// stream position limit or the run drains; it reports whether the run
// has drained. This is the batch-driver hook behind lockstep
// multi-config simulation: the driver moves each instance one stream
// chunk at a time, and because step is the same kernel Run uses, any
// segmentation of the run — including the degenerate
// RunToFetch(MaxUint64) that Run itself performs — produces
// byte-identical statistics.
//
// A mispredict recovery may rewind the fetch frontier below an
// already-reached limit; the next call simply advances until the
// frontier passes it again, re-reading the unreleased part of the
// stream through the pipeline's cursor.
func (p *Pipeline) RunToFetch(limit uint64) bool {
	for !p.halted {
		if p.fetchPos >= limit {
			return false
		}
		if p.step() {
			p.halted = true
		}
	}
	return true
}

// Finalize computes the end-of-run aggregate statistics and returns the
// Result. Call once the run has drained (Run does it internally; batch
// drivers call it after RunToFetch reports the drain). It also ends the
// run: the pipeline closes its cursor and hands its working set to the
// next pipeline, so it must not be stepped again. A second call returns
// the same Result.
func (p *Pipeline) Finalize() Result {
	cycles := p.cycle - p.cycleBase
	p.res.Cycles = cycles
	if cycles > 0 {
		p.res.AvgRUUOcc = float64(p.occRUUSum) / float64(cycles)
		p.res.AvgLSQOcc = float64(p.occLSQSum) / float64(cycles)
		p.res.AvgIFQOcc = float64(p.occIFQSum) / float64(cycles)
	}
	p.cur.Close()
	if b := p.bufs; b != nil {
		b.ready = p.ready
		runPool.Put(b)
		p.bufs = nil
		p.ruu, p.ifq, p.deps, p.ready, p.wheel, p.wheelBits = nil, nil, nil, nil, nil, nil
	}
	return p.res
}

// ---------------------------------------------------------------- fetch

// fetch runs the fetch stage and returns how many instructions it
// delivered to the IFQ.
func (p *Pipeline) fetch() uint64 {
	st := &p.res.Pipe.Stall
	if p.cycle < p.fetchResume {
		p.stall(stageFetch, &st.FetchPenalty)
		p.res.Pipe.Fetch.observe(0)
		return 0
	}
	if p.streamEnd && p.wrongPath {
		p.stall(stageFetch, &st.FetchStreamEnd)
		p.res.Pipe.Fetch.observe(0)
		return 0
	}
	fetched := p.fetchInsts()
	if fetched == 0 {
		switch {
		case p.ifqLen >= p.cfg.IFQSize:
			p.stall(stageFetch, &st.FetchIFQFull)
		case p.streamEnd || p.wrongPath:
			p.stall(stageFetch, &st.FetchStreamEnd)
		default:
			p.stalled[stageFetch] = nil
		}
	}
	p.res.Pipe.Fetch.observe(fetched)
	return fetched
}

// fetchInsts fetches up to the fetch width into the IFQ.
func (p *Pipeline) fetchInsts() uint64 {
	fetched := uint64(0)
	for budget := p.fetchWidth; budget > 0 && p.ifqLen < p.cfg.IFQSize; budget-- {
		d := p.cur.At(p.fetchPos)
		if d == nil {
			if !p.wrongPath {
				p.streamEnd = true
			}
			return fetched
		}
		e := ifqEntry{pos: p.fetchPos, wrongPath: p.wrongPath}
		p.res.Act.Fetched++
		fetched++
		p.fetchPos++

		stall := 0
		isBranch := d.Class.IsBranch()
		if !p.wrongPath {
			stall = p.fetchLocality(d)
			if isBranch {
				e.outcome = p.predictBranch(d)
			}
		}
		p.ifqPush(e)

		if !p.wrongPath && isBranch {
			if e.outcome.Mispredicted {
				// Everything fetched from here on is wrong-path filler
				// until the branch resolves (§2.3).
				p.wrongPath = true
				break
			}
			if e.outcome.FetchRedirect {
				p.fetchResume = p.cycle + 1 + uint64(p.cfg.RedirectPenalty)
				break
			}
		}
		if stall > 0 {
			p.fetchResume = p.cycle + 1 + uint64(stall)
			break
		}
		if d.Taken {
			// At most one taken branch is fetched per cycle.
			break
		}
	}
	return fetched
}

// fetchLocality performs the I-side cache work for a correct-path fetch
// and returns the fetch stall in cycles.
func (p *Pipeline) fetchLocality(d *trace.DynInst) int {
	p.res.Act.ICacheAccesses++
	p.res.Cache.IFetches++
	if p.cfg.PerfectCaches {
		return 0
	}
	var m uint8
	if p.iHier != nil {
		r := p.iHier.AccessI(d.PC)
		m = missIndex(r.L1Miss, r.L2Miss, r.TLBMiss)
	} else {
		m = iFlagMiss(d.Flags)
	}
	if m&missL1 != 0 {
		p.res.Cache.L1IMisses++
		p.res.Act.L2Accesses++
		if m&missL2 != 0 {
			p.res.Cache.L2IMisses++
		}
	}
	if m&missTLB != 0 {
		p.res.Cache.ITLBMisses++
	}
	return p.fetchStall[m]
}

// predictBranch produces the branch outcome for a correct-path branch
// at fetch time (lookup at fetch; state update happens at dispatch).
func (p *Pipeline) predictBranch(d *trace.DynInst) bpred.Outcome {
	if p.cfg.PerfectBpred {
		return bpred.Outcome{Taken: d.Taken}
	}
	p.res.Act.BpredLookups++
	p.res.Act.BTBAccesses++
	if p.pred != nil {
		pr := p.pred.Lookup(d.PC, d.Class)
		return bpred.Classify(pr, d.Class, d.Taken, d.NextPC)
	}
	return bpred.Outcome{
		Taken:         d.Taken,
		Mispredicted:  d.Flags.Has(trace.FlagBrMispredict),
		FetchRedirect: d.Flags.Has(trace.FlagBrFetchRedirect),
	}
}

func (p *Pipeline) ifqPush(e ifqEntry) {
	i := p.ifqHead + p.ifqLen
	if i >= p.cfg.IFQSize {
		i -= p.cfg.IFQSize
	}
	p.ifq[i] = e
	p.ifqLen++
}

// -------------------------------------------------------------- dispatch

// dispatch moves instructions from the IFQ into the RUU (and LSQ) and
// returns how many it moved.
func (p *Pipeline) dispatch() uint64 {
	moved := p.dispatchInsts()
	if moved == 0 {
		st := &p.res.Pipe.Stall
		switch {
		case p.ifqLen == 0:
			p.stall(stageDispatch, &st.DispatchEmptyIFQ)
		case p.ruuLen >= p.cfg.RUUSize:
			p.stall(stageDispatch, &st.DispatchRUUFull)
		default:
			p.stall(stageDispatch, &st.DispatchLSQFull)
		}
	}
	p.res.Pipe.Dispatch.observe(moved)
	return moved
}

func (p *Pipeline) dispatchInsts() uint64 {
	moved := uint64(0)
	for n := 0; n < p.cfg.DecodeWidth && p.ifqLen > 0 && p.ruuLen < p.cfg.RUUSize; n++ {
		fe := &p.ifq[p.ifqHead]
		d := p.cur.At(fe.pos)
		isMem := d.Class.IsMem()
		if isMem && p.lsqLen >= p.cfg.LSQSize {
			break
		}
		if p.ifqHead++; p.ifqHead == p.cfg.IFQSize {
			p.ifqHead = 0
		}
		p.ifqLen--

		si := p.ruuHead + p.ruuLen
		if si >= p.cfg.RUUSize {
			si -= p.cfg.RUUSize
		}
		slot := int32(si)
		p.ruuLen++
		en := &p.ruu[slot]
		gen := en.gen + 1
		*en = ruuEntry{
			pos:       fe.pos,
			effAddr:   d.EffAddr,
			waiters:   en.waiters[:0],
			outcome:   fe.outcome,
			gen:       gen,
			flags:     d.Flags,
			class:     d.Class,
			taken:     d.Taken,
			wrongPath: fe.wrongPath,
			isMem:     isMem,
			active:    true,
		}
		if isMem {
			p.lsqLen++
		}
		moved++
		p.res.Act.Dispatched++
		p.res.Act.RegReads += uint64(d.NumSrcs)
		if d.Class.HasDest() {
			p.res.Act.RegWrites++
		}

		// Speculative predictor update at dispatch (correct path only).
		if d.Class.IsBranch() && !fe.wrongPath && p.pred != nil && !p.cfg.PerfectBpred {
			p.pred.Update(d.PC, d.Class, d.Taken, d.NextPC)
			p.res.Act.BpredUpdates++
		}

		// Resolve RAW dependencies through the in-flight table; in-order
		// configurations additionally respect the WAW dependency, which
		// renaming would otherwise remove.
		for op := 0; op < int(d.NumSrcs); op++ {
			p.addDep(en, slot, gen, fe.pos, uint64(d.DepDist[op]))
		}
		if p.cfg.InOrder {
			p.addDep(en, slot, gen, fe.pos, uint64(d.WAWDist))
		}
		p.deps[fe.pos&p.depMask] = depRec{pos: fe.pos, slot: slot, gen: gen, used: true}

		if en.waitCount == 0 {
			en.state = stateReady
			p.markReady(slot)
		}
	}
	return moved
}

// addDep records a dependency of the entry at slot on the instruction
// delta positions earlier, if that producer is still in flight.
func (p *Pipeline) addDep(en *ruuEntry, slot int32, gen uint32, pos, delta uint64) {
	if delta == 0 || delta > pos {
		return
	}
	q := pos - delta
	rec := &p.deps[q&p.depMask]
	if !rec.used || rec.pos != q {
		return
	}
	prod := &p.ruu[rec.slot]
	if !prod.active || prod.gen != rec.gen || prod.state == stateDone {
		return
	}
	prod.waiters = append(prod.waiters, waiterRef{slot: slot, gen: gen})
	en.waitCount++
}

// markReady queues a ready entry for out-of-order selection; the
// in-order issue path scans the RUU directly instead.
func (p *Pipeline) markReady(slot int32) {
	if !p.cfg.InOrder {
		p.ready = append(p.ready, slot)
	}
}

// ----------------------------------------------------------------- issue

// issue selects ready instructions onto functional units and returns
// how many it issued.
func (p *Pipeline) issue() uint64 {
	var issued uint64
	var sawReady bool
	if p.cfg.InOrder {
		issued, sawReady = p.issueInOrder()
	} else {
		issued, sawReady = p.issueOutOfOrder()
	}
	if issued == 0 {
		switch {
		case p.ruuLen == 0:
			p.stalled[stageIssue] = nil
		case sawReady:
			p.stall(stageIssue, &p.res.Pipe.Stall.IssueFUBusy)
		default:
			p.stall(stageIssue, &p.res.Pipe.Stall.IssueNoReady)
		}
	}
	p.res.Pipe.Issue.observe(issued)
	return issued
}

func (p *Pipeline) issueOutOfOrder() (uint64, bool) {
	if len(p.ready) == 0 {
		return 0, false
	}
	// Oldest-first selection. Stream positions order in-flight entries
	// totally: wrong-path entries are strictly younger than every
	// correct-path entry, and positions are unique among live entries.
	// slices.SortFunc rather than sort.Slice: the comparator is total,
	// so both produce the same order, and SortFunc does not allocate a
	// reflect-based swapper every cycle.
	slices.SortFunc(p.ready, func(a, b int32) int {
		pa, pb := p.ruu[a].pos, p.ruu[b].pos
		switch {
		case pa < pb:
			return -1
		case pa > pb:
			return 1
		}
		return 0
	})
	issued := uint64(0)
	sawReady := false
	kept := p.ready[:0]
	for _, slot := range p.ready {
		en := &p.ruu[slot]
		if !en.active || en.state != stateReady {
			continue // squashed since enqueued
		}
		sawReady = true
		if issued >= uint64(p.cfg.IssueWidth) {
			kept = append(kept, slot)
			continue
		}
		if !p.issueEntry(slot, en) {
			kept = append(kept, slot)
			continue
		}
		issued++
	}
	p.ready = kept
	return issued, sawReady
}

// issueInOrder issues strictly in program order: the oldest un-issued
// instruction blocks everything younger until it issues. It reports
// how many instructions issued and whether any instruction was ready
// (so a zero-issue cycle can be attributed to operands vs units).
func (p *Pipeline) issueInOrder() (uint64, bool) {
	issued := uint64(0)
	si := p.ruuHead
	for i := 0; i < p.ruuLen && issued < uint64(p.cfg.IssueWidth); i++ {
		slot := int32(si)
		if si++; si == p.cfg.RUUSize {
			si = 0
		}
		en := &p.ruu[slot]
		switch en.state {
		case stateIssued, stateDone:
			continue
		case stateWaiting:
			return issued, false
		}
		if !p.issueEntry(slot, en) {
			return issued, true // structural hazard stalls issue in order
		}
		issued++
	}
	// Reaching here with zero issues means every in-flight entry was
	// already executing or complete — nothing was ready.
	return issued, false
}

// issueEntry issues a ready entry if a unit of its pool is free this
// cycle, reporting whether it did.
func (p *Pipeline) issueEntry(slot int32, en *ruuEntry) bool {
	pool, lat, occ := p.fuFor(en.class)
	unit := -1
	for u := range pool {
		if pool[u] <= p.cycle {
			unit = u
			break
		}
	}
	if unit < 0 {
		return false
	}
	pool[unit] = p.cycle + uint64(occ)
	if en.isMem && !en.wrongPath {
		p.accessDCache(en)
	}
	if en.class == isa.Load {
		// Wrong-path loads and perfect caches leave dMiss zero: an L1 hit.
		lat = p.loadLat[en.dMiss]
	}
	if lat < 1 {
		lat = 1
	}
	en.state = stateIssued
	en.completeAt = p.cycle + uint64(lat)
	p.scheduleCompletion(slot, en)
	p.res.Act.Issued++
	p.countFUOp(en.class)
	return true
}

// fuFor maps a class to its functional-unit pool, result latency and
// unit occupancy (latency for non-pipelined units, 1 otherwise).
func (p *Pipeline) fuFor(c isa.Class) (pool []uint64, lat, occ int) {
	lat = c.Latency()
	occ = 1
	switch c {
	case isa.Load, isa.Store:
		pool = p.fuLS
	case isa.IntBranch, isa.IndirBranch, isa.IntALU:
		pool = p.fuIntALU
	case isa.FPALU, isa.FPBranch:
		pool = p.fuFPAdd
	case isa.IntMul:
		pool = p.fuIntMul
	case isa.IntDiv:
		pool = p.fuIntMul
		occ = lat
	case isa.FPMul:
		pool = p.fuFPMul
	case isa.FPDiv, isa.FPSqrt:
		pool = p.fuFPMul
		occ = lat
	default:
		pool = p.fuIntALU
	}
	return pool, lat, occ
}

func (p *Pipeline) countFUOp(c isa.Class) {
	switch {
	case c == isa.Load:
		p.res.Act.LoadOps++
	case c == isa.Store:
		p.res.Act.StoreOps++
	case c == isa.IntMul || c == isa.IntDiv:
		p.res.Act.IntMulOps++
	case c.IsFP():
		p.res.Act.FPOps++
	default:
		p.res.Act.IntALUOps++
	}
}

// accessDCache performs the D-side cache bookkeeping for a correct-path
// memory operation at issue time. In live mode it also mutates the
// hierarchy; stores access the cache but never stall the pipeline
// (write buffering).
func (p *Pipeline) accessDCache(en *ruuEntry) {
	p.res.Act.DCacheAccesses++
	p.res.Cache.DAccesses++
	if p.cfg.PerfectCaches {
		return
	}
	var m uint8
	if p.dHier != nil {
		r := p.dHier.AccessD(en.effAddr)
		m = missIndex(r.L1Miss, r.L2Miss, r.TLBMiss)
	} else {
		m = dFlagMiss(en.flags)
	}
	if m&missL1 != 0 {
		p.res.Cache.L1DMisses++
		p.res.Act.L2Accesses++
		if m&missL2 != 0 {
			p.res.Cache.L2DMisses++
		}
	}
	if m&missTLB != 0 {
		p.res.Cache.DTLBMisses++
	}
	en.dMiss = m
}

// ------------------------------------------------------------- writeback

// writeback completes the entries due this cycle and reports whether
// the cycle's wheel slot held any.
func (p *Pipeline) writeback() bool {
	idx := p.cycle & p.wheelMask
	bit := uint64(1) << (idx & 63)
	if p.wheelBits[idx>>6]&bit == 0 {
		return false
	}
	p.wheelBits[idx>>6] &^= bit
	completing := p.wheel[idx]
	p.wheel[idx] = completing[:0]
	for _, ref := range completing {
		en := &p.ruu[ref.slot]
		// Entries squashed (and possibly reissued) since scheduling are
		// filtered by the generation check.
		if !en.active || en.gen != ref.gen || en.state != stateIssued || en.completeAt != p.cycle {
			continue
		}
		en.state = stateDone
		for _, w := range en.waiters {
			c := &p.ruu[w.slot]
			if !c.active || c.gen != w.gen || c.state != stateWaiting {
				continue
			}
			c.waitCount--
			if c.waitCount == 0 {
				c.state = stateReady
				p.markReady(w.slot)
			}
		}
		en.waiters = en.waiters[:0]

		if en.class.IsBranch() && !en.wrongPath && en.outcome.Mispredicted {
			// At most one unresolved correct-path misprediction can be
			// in flight, so a single recovery per cycle suffices; any
			// same-cycle completions of now-squashed entries are
			// filtered above.
			p.recover(ref.slot)
		}
	}
	return true
}

// recover squashes everything younger than the mispredicted branch in
// the RUU slot branchSlot, clears the IFQ, and redirects fetch to the
// correct path after the misprediction penalty.
func (p *Pipeline) recover(branchSlot int32) {
	branch := &p.ruu[branchSlot]
	for p.ruuLen > 0 {
		si := p.ruuHead + p.ruuLen - 1
		if si >= p.cfg.RUUSize {
			si -= p.cfg.RUUSize
		}
		slot := int32(si)
		if slot == branchSlot {
			break
		}
		en := &p.ruu[slot]
		if en.isMem {
			p.lsqLen--
		}
		en.active = false
		en.gen++
		p.ruuLen--
	}
	p.ifqHead, p.ifqLen = 0, 0
	p.fetchPos = branch.pos + 1
	p.wrongPath = false
	p.streamEnd = false
	resume := p.cycle + 1 + uint64(p.cfg.MispredictExtra)
	if resume > p.fetchResume {
		p.fetchResume = resume
	}
}

// ---------------------------------------------------------------- commit

// commit retires completed instructions in order and returns how many
// it retired.
func (p *Pipeline) commit() uint64 {
	committed := p.commitInsts()
	if committed == 0 {
		if p.ruuLen == 0 {
			p.stall(stageCommit, &p.res.Pipe.Stall.CommitEmptyRUU)
		} else {
			p.stall(stageCommit, &p.res.Pipe.Stall.CommitOldestNotDone)
		}
	}
	p.res.Pipe.Commit.observe(committed)
	return committed
}

func (p *Pipeline) commitInsts() uint64 {
	committed := uint64(0)
	for n := 0; n < p.cfg.CommitWidth && p.ruuLen > 0; n++ {
		en := &p.ruu[p.ruuHead]
		if en.state != stateDone {
			break
		}
		if en.wrongPath {
			panic("cpu: wrong-path instruction reached commit")
		}
		if en.isMem {
			p.lsqLen--
		}
		if en.class.IsBranch() {
			p.res.Branch.Branches++
			if en.taken {
				p.res.Branch.Taken++
			}
			if en.outcome.Mispredicted {
				p.res.Branch.Mispredicted++
			}
			if en.outcome.FetchRedirect {
				p.res.Branch.FetchRedirect++
			}
		}
		en.active = false
		en.gen++
		if p.ruuHead++; p.ruuHead == p.cfg.RUUSize {
			p.ruuHead = 0
		}
		p.ruuLen--
		committed++
		p.res.Instructions++
		p.res.Act.Committed++
		if p.res.Instructions%8192 == 0 {
			p.cur.Release(en.pos + 1)
		}
		if p.warmLeft > 0 {
			p.warmLeft--
			if p.warmLeft == 0 {
				// End of warmup: discard the statistics accumulated so
				// far; microarchitectural state stays warm.
				p.res = Result{}
				p.occRUUSum, p.occLSQSum, p.occIFQSum = 0, 0, 0
				p.cycleBase = p.cycle
			}
		}
	}
	return committed
}
