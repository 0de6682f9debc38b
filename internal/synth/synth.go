// Package synth implements steps 2 of the statistical simulation
// framework (Figure 1): reducing a statistical flow graph by the trace
// reduction factor R and generating a synthetic trace by a stochastic
// walk over the reduced graph (the nine-step algorithm of §2.2).
package synth

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sfg"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures synthetic trace generation.
type Options struct {
	// R is the synthetic trace reduction factor: the synthetic trace is
	// ~1/R the length of the profiled execution (typical paper values
	// are 1,000-100,000 against 100M-10B instruction streams; scale R to
	// keep synthetic traces in the 50k-1M range).
	R uint64
	// Seed drives all stochastic choices; different seeds yield
	// different traces from the same profile (used by the CoV study).
	Seed uint64
	// EdgeAverageLocality assigns locality events from the paper's
	// literal per-edge aggregate rates instead of the slot-resolved
	// rates this implementation defaults to. Kept as an ablation: with
	// heterogeneous loads inside one block, edge averaging moves memory
	// latency onto the wrong dependency chains (see sfg.InstProfile).
	EdgeAverageLocality bool
	// SyntheticAddresses makes the generated trace carry effective
	// addresses synthesised from the profiled per-slot stride/footprint
	// statistics (sfg.AddrProfile), instead of only pre-assigned
	// hit/miss flags. Combined with cpu.Config.SimulateDCache this lets
	// the data-cache design space be explored from one profile without
	// re-profiling — the extension the paper's §2.1.2 pragmatics trade
	// away.
	SyntheticAddresses bool
}

// Reduced is a reduced statistical flow graph: node occurrences divided
// by R (floored), zero-occurrence nodes removed along with their edges
// (§2.2). Each NewTrace call walks a private copy of the occurrence
// counters, but trace sources sharing one Reduced (or one underlying
// Graph) must not run concurrently unless the graph has been frozen
// with (*sfg.Graph).Freeze: sampling lazily caches cumulative
// distributions inside the underlying profile's histograms, and Freeze
// builds those caches eagerly so concurrent sampling is read-only.
type Reduced struct {
	g    *sfg.Graph
	opts Options

	occ      []uint64 // floored node occurrences
	alive    []bool
	aliveOut [][]int32    // per node: surviving out-edge IDs
	outCDF   []*stats.CDF // per node: CDF over aliveOut edge counts (step-9 fast path)
	inCDF    []*stats.CDF // per node: CDF over ALL in-edge counts (entry stats)
	total    uint64       // sum of floored occurrences

	maxBlock int // longest block (instructions) among surviving edges
	maxOut   int // largest surviving out-degree
}

// Reduce builds the reduced graph for the given options.
func Reduce(g *sfg.Graph, opts Options) (*Reduced, error) {
	if opts.R == 0 {
		return nil, fmt.Errorf("synth: reduction factor R must be >= 1")
	}
	r := &Reduced{
		g:        g,
		opts:     opts,
		occ:      make([]uint64, len(g.Nodes)),
		alive:    make([]bool, len(g.Nodes)),
		aliveOut: make([][]int32, len(g.Nodes)),
		outCDF:   make([]*stats.CDF, len(g.Nodes)),
		inCDF:    make([]*stats.CDF, len(g.Nodes)),
	}
	for i, n := range g.Nodes {
		r.occ[i] = n.Occ / opts.R
		r.alive[i] = r.occ[i] > 0
		r.total += r.occ[i]
	}
	if r.total == 0 {
		return nil, fmt.Errorf("synth: R=%d removes every node (profile has %d blocks)", opts.R, g.TotalBlocks)
	}
	// Build every sampling structure the walk needs up front, so the
	// per-step hot path is allocation-free: alias-backed CDFs over out-
	// and in-edges, eagerly frozen dependency histograms (Freeze is
	// idempotent; for a shared graph the service freezes before fan-out
	// and this pass is read-only), and buffer bounds for the trace
	// source's preallocated scratch space.
	g.Freeze()
	for i, n := range g.Nodes {
		if !r.alive[i] {
			continue
		}
		var out []int32
		for _, eid := range n.Out {
			if r.alive[g.Edges[eid].To] {
				out = append(out, eid)
			}
		}
		r.aliveOut[i] = out
		if len(out) > r.maxOut {
			r.maxOut = len(out)
		}
		if len(out) > 0 {
			wo := make([]uint64, len(out))
			for j, eid := range out {
				wo[j] = g.Edges[eid].Count
				if insts := len(g.Edges[eid].Insts); insts > r.maxBlock {
					r.maxBlock = insts
				}
			}
			r.outCDF[i] = stats.NewCDF(wo)
		}
		if len(n.In) > 0 {
			wi := make([]uint64, len(n.In))
			for j, eid := range n.In {
				wi[j] = g.Edges[eid].Count
				if insts := len(g.Edges[eid].Insts); insts > r.maxBlock {
					r.maxBlock = insts
				}
			}
			r.inCDF[i] = stats.NewCDF(wi)
		}
	}
	return r, nil
}

// ExpectedLength returns the approximate synthetic trace length in
// instructions.
func (r *Reduced) ExpectedLength() uint64 {
	return r.g.TotalInstructions / r.opts.R
}

// AliveNodes returns the number of surviving nodes.
func (r *Reduced) AliveNodes() int {
	n := 0
	for _, a := range r.alive {
		if a {
			n++
		}
	}
	return n
}

// ReduceStats summarises one graph reduction for observability
// surfaces: how much of the profile survived division by R.
type ReduceStats struct {
	R              uint64 `json:"r"`
	NodesAlive     int    `json:"nodes_alive"`
	NodesDropped   int    `json:"nodes_dropped"`
	Occurrences    uint64 `json:"occurrences"` // surviving block instances
	ExpectedLength uint64 `json:"expected_length"`
}

// Stats computes the reduction summary.
func (r *Reduced) Stats() ReduceStats {
	alive := r.AliveNodes()
	return ReduceStats{
		R:              r.opts.R,
		NodesAlive:     alive,
		NodesDropped:   len(r.g.Nodes) - alive,
		Occurrences:    r.total,
		ExpectedLength: r.ExpectedLength(),
	}
}

// TraceSource generates the synthetic trace lazily, block by block; it
// implements trace.Source so the timing simulator can consume traces of
// any length in constant memory.
type TraceSource struct {
	r   *Reduced
	rng *stats.RNG

	nodeOcc   *stats.WeightedSampler
	remaining uint64

	cur    int32 // current node, -1 before the first step-1 selection
	seq    uint64
	buf    []trace.DynInst // instructions of the current block instance
	bufPos int
	done   bool

	// Scratch buffers for the per-step outgoing-edge choice
	// (preallocated to the graph's maximum out-degree).
	candEdges   []int32
	candWeights []uint64

	// depleted[n] counts in-edges of exhausted nodes arriving at
	// targets reachable from n: while depleted[cur] == 0, every
	// aliveOut target of cur still has occurrence budget and the step-9
	// draw can use the precomputed alias-backed out-edge CDF (O(1))
	// instead of rebuilding the candidate set — bit-identical, since
	// the candidate set equals aliveOut and both paths consume one
	// uniform variate with the same inverse-CDF mapping.
	depleted []int32

	// Synthetic-address state (SyntheticAddresses option): per-slot
	// walk positions and sampling-ready stride tables.
	addrStates map[int64]*addrState
	strideCDFs map[*sfg.AddrProfile]*strideCDF

	// hasDest[seq % ring] records whether the instruction at that
	// sequence number produces a register value (for the step-4
	// dependency rejection rule).
	hasDest []bool
}

const destRing = 2048 // > MaxDependencyDistance, power of two

// maxDepRetries bounds the §2.2-step-4 rejection loop that keeps an
// instruction from depending on a branch or store: as in the paper, a
// dependency distance is redrawn up to 1,000 times and the dependency
// is squashed when every draw is rejected.
const maxDepRetries = 1000

// NewTrace starts a fresh stochastic walk over the reduced graph.
func (r *Reduced) NewTrace(seed uint64) *TraceSource {
	t := &TraceSource{
		r:           r,
		rng:         stats.NewRNG(seed),
		nodeOcc:     stats.NewWeightedSampler(r.occ),
		remaining:   r.total,
		cur:         -1,
		hasDest:     make([]bool, destRing),
		buf:         make([]trace.DynInst, 0, r.maxBlock),
		candEdges:   make([]int32, 0, r.maxOut),
		candWeights: make([]uint64, 0, r.maxOut),
		depleted:    make([]int32, len(r.g.Nodes)),
	}
	if r.opts.SyntheticAddresses {
		t.addrStates = make(map[int64]*addrState)
		t.strideCDFs = make(map[*sfg.AddrProfile]*strideCDF)
	}
	return t
}

// NextBatch implements trace.Source: it drains whole blocks of the
// walk into dst, copying straight out of the block buffer.
func (t *TraceSource) NextBatch(dst []trace.DynInst) int {
	n := 0
	for n < len(dst) {
		if t.bufPos >= len(t.buf) {
			if !t.step() {
				break
			}
			continue
		}
		c := copy(dst[n:], t.buf[t.bufPos:])
		t.bufPos += c
		n += c
	}
	return n
}

// step advances the walk by one basic block, refilling the buffer.
// It returns false when the trace is complete.
//
// Occurrence accounting follows §2.2 with depleted nodes treated as
// removed: step 9 only follows edges whose target still has occurrences
// left, so the walk re-anchors through the step-1 occurrence CDF when
// its neighbourhood is consumed, and the emitted block frequencies
// match the reduced occurrences exactly.
func (t *TraceSource) step() bool {
	if t.done {
		return false
	}
	if t.remaining == 0 {
		t.done = true
		return false
	}
	// Step 9: follow an outgoing edge by transition probability, among
	// targets that still have occurrence budget. While no reachable
	// target is depleted the candidate set is exactly aliveOut and the
	// draw goes through the precomputed alias-backed CDF; otherwise the
	// candidate set is rebuilt by the filtering scan. Both paths map
	// the uniform variate through the same inverse-CDF transform, so
	// the choice of path never changes the outcome.
	if t.cur >= 0 {
		if t.depleted[t.cur] == 0 {
			if cdf := t.r.outCDF[t.cur]; cdf != nil {
				eid := t.r.aliveOut[t.cur][cdf.Sample(t.rng.Float64())]
				e := t.r.g.Edges[eid]
				t.emitBlock(e)
				t.cur = e.To
				t.consume(t.cur)
				return true
			}
		} else {
			t.candEdges = t.candEdges[:0]
			t.candWeights = t.candWeights[:0]
			var total uint64
			for _, eid := range t.r.aliveOut[t.cur] {
				e := t.r.g.Edges[eid]
				if t.nodeOcc.Weight(int(e.To)) > 0 {
					t.candEdges = append(t.candEdges, eid)
					t.candWeights = append(t.candWeights, e.Count)
					total += e.Count
				}
			}
			if total > 0 {
				target := uint64(t.rng.Float64() * float64(total))
				var cum uint64
				eid := t.candEdges[len(t.candEdges)-1]
				for i, w := range t.candWeights {
					cum += w
					if target < cum {
						eid = t.candEdges[i]
						break
					}
				}
				e := t.r.g.Edges[eid]
				t.emitBlock(e)
				t.cur = e.To
				t.consume(t.cur)
				return true
			}
		}
	}
	// Step 1: select a node through the cumulative occurrence
	// distribution; terminate when all occurrences are consumed.
	if t.nodeOcc.Total() == 0 {
		t.done = true
		return false
	}
	node := t.nodeOcc.Sample(t.rng.Float64())
	// The block's execution characteristics live on the edges into the
	// node; entering "from nowhere", draw a context-weighted incoming
	// edge.
	in := t.r.inCDF[node]
	if in == nil {
		// A start-of-stream warm-up node with no predecessors: consume
		// its occurrence and re-anchor without emitting.
		t.consume(int32(node))
		return !t.done
	}
	e := t.r.g.Edges[t.r.g.Nodes[node].In[in.Sample(t.rng.Float64())]]
	t.emitBlock(e)
	t.cur = int32(node)
	t.consume(t.cur)
	return true
}

// consume decrements the occurrence of node n (step 2). When n's
// budget reaches zero, every predecessor is flagged so its step-9 draw
// falls back to the depletion-filtering scan.
func (t *TraceSource) consume(n int32) {
	if t.nodeOcc.Decrement(int(n)) {
		t.remaining--
		if t.nodeOcc.Weight(int(n)) == 0 {
			for _, eid := range t.r.g.Nodes[n].In {
				if from := t.r.g.Edges[eid].From; t.r.alive[from] {
					t.depleted[from]++
				}
			}
		}
	}
	if t.remaining == 0 {
		t.done = true
	}
}

// emitBlock materialises one instance of the basic block described by
// edge e into the buffer (steps 3-8).
func (t *TraceSource) emitBlock(e *sfg.Edge) {
	t.buf = t.buf[:0]
	t.bufPos = 0
	for i := range e.Insts {
		ip := &e.Insts[i]
		d := trace.DynInst{
			Seq:     t.seq,
			PC:      uint64(e.Block)<<20 | uint64(i)<<3,
			Class:   ip.Class,
			NumSrcs: ip.NumSrcs,
			BlockID: e.Block,
			Index:   int16(i),
		}

		// Step 4: dependency distances with branch/store rejection.
		for op := 0; op < int(ip.NumSrcs); op++ {
			if delta, ok := t.sampleDep(ip.Dep[op], e.Count); ok {
				d.DepDist[op] = delta
			}
		}
		// Output (WAW) dependency — consumed only by in-order
		// configurations, where renaming does not hide it.
		if ip.Class.HasDest() {
			if delta, ok := t.sampleDep(ip.WAW, e.Count); ok {
				d.WAWDist = delta
			}
		}

		// Synthetic effective addresses (opt-in extension).
		if t.addrStates != nil && ip.Class.IsMem() && ip.Addr != nil {
			key := int64(e.ID)<<8 | int64(i)
			st := t.addrStates[key]
			if st == nil {
				st = &addrState{}
				t.addrStates[key] = st
			}
			cdf := t.strideCDFs[ip.Addr]
			if cdf == nil {
				cdf = buildStrideCDF(ip.Addr)
				t.strideCDFs[ip.Addr] = cdf
			}
			d.EffAddr = t.synthesizeAddr(ip.Addr, st, cdf)
		}

		// Steps 5 and 7: locality events. Slot-resolved by default (see
		// sfg.InstProfile for why slots rather than edge averages); the
		// paper-literal edge-average assignment is kept as an ablation.
		if t.r.opts.EdgeAverageLocality {
			if e.Fetches > 0 {
				if t.bernoulli(e.L1IMiss, e.Fetches) {
					d.Flags |= trace.FlagL1IMiss
					if t.bernoulli(e.L2IMiss, e.L1IMiss) {
						d.Flags |= trace.FlagL2IMiss
					}
				}
				if t.bernoulli(e.ITLBMiss, e.Fetches) {
					d.Flags |= trace.FlagITLBMiss
				}
			}
			if ip.Class == isa.Load && e.Loads > 0 {
				if t.bernoulli(e.L1DMiss, e.Loads) {
					d.Flags |= trace.FlagL1DMiss
					if t.bernoulli(e.L2DMiss, e.L1DMiss) {
						d.Flags |= trace.FlagL2DMiss
					}
				}
				if t.bernoulli(e.DTLBMiss, e.Loads) {
					d.Flags |= trace.FlagDTLBMiss
				}
			}
		} else {
			if t.bernoulli(ip.L1IMiss, e.Count) {
				d.Flags |= trace.FlagL1IMiss
				if t.bernoulli(ip.L2IMiss, ip.L1IMiss) {
					d.Flags |= trace.FlagL2IMiss
				}
			}
			if t.bernoulli(ip.ITLBMiss, e.Count) {
				d.Flags |= trace.FlagITLBMiss
			}
			if ip.Class == isa.Load {
				if t.bernoulli(ip.L1DMiss, e.Count) {
					d.Flags |= trace.FlagL1DMiss
					if t.bernoulli(ip.L2DMiss, ip.L1DMiss) {
						d.Flags |= trace.FlagL2DMiss
					}
				}
				if t.bernoulli(ip.DTLBMiss, e.Count) {
					d.Flags |= trace.FlagDTLBMiss
				}
			}
		}

		// Step 6: the block-terminating branch.
		if ip.Class.IsBranch() && e.BrCount > 0 {
			d.Taken = t.bernoulli(e.BrTaken, e.BrCount)
			u := t.rng.Float64() * float64(e.BrCount)
			switch {
			case u < float64(e.BrMispredict):
				d.Flags |= trace.FlagBrMispredict
			case u < float64(e.BrMispredict+e.BrRedirect):
				d.Flags |= trace.FlagBrFetchRedirect
			}
		}

		t.hasDest[t.seq%destRing] = ip.Class.HasDest()
		t.seq++
		t.buf = append(t.buf, d)
	}
}

// sampleDep draws one dependency distance from h, reproducing the
// probability that a dynamic instance carries the dependency at all
// (h covers only instances that did, out of count instances) and
// applying the §2.2-step-4 rejection rule: the producer must be an
// instruction with a register result, retried up to maxDepRetries
// times and squashed otherwise.
//
// Neither seq nor the hasDest window changes inside the retry loop, so
// after the first rejection a scan of h's support decides whether any
// draw can succeed. When none can, the remaining draws are doomed: the
// RNG is advanced by exactly their count and the dependency squashed,
// leaving the trace and the RNG state as the full loop would.
func (t *TraceSource) sampleDep(h *stats.Histogram, count uint64) (uint32, bool) {
	if h == nil || h.Total() == 0 {
		return 0, false
	}
	if t.rng.Float64() >= float64(h.Total())/float64(count) {
		return 0, false
	}
	if delta := uint64(h.Sample(t.rng.Float64())); t.isProducer(delta) {
		return uint32(delta), true
	}
	if !t.anyProducer(h) {
		t.rng.Skip(maxDepRetries - 1)
		return 0, false
	}
	for try := 1; try < maxDepRetries; try++ {
		if delta := uint64(h.Sample(t.rng.Float64())); t.isProducer(delta) {
			return uint32(delta), true
		}
	}
	return 0, false
}

// isProducer reports whether the instruction delta back from the
// current one exists and writes a register: a distance reaching before
// the start of the trace, or onto a branch or store, is rejected.
func (t *TraceSource) isProducer(delta uint64) bool {
	return delta <= t.seq && t.hasDest[(t.seq-delta)%destRing]
}

// anyProducer reports whether some value in h's support is a producer
// distance at the current instruction.
func (t *TraceSource) anyProducer(h *stats.Histogram) bool {
	return h.ContainsFunc(func(v int) bool { return t.isProducer(uint64(v)) })
}

// bernoulli draws true with probability num/den.
func (t *TraceSource) bernoulli(num, den uint64) bool {
	if num == 0 {
		return false
	}
	if num >= den {
		return true
	}
	return t.rng.Float64()*float64(den) < float64(num)
}

// Generated returns how many instructions have been emitted so far.
func (t *TraceSource) Generated() uint64 { return t.seq }

var _ trace.Source = (*TraceSource)(nil)
