package sfg

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures statistical profiling.
type Options struct {
	// K is the SFG order (history length); the paper uses k = 1.
	K int
	// Hier configures the cache structures used to measure the locality
	// events annotated to edges (§2.1.2: functional simulation extended
	// with caches, à la sim-cache).
	Hier cache.HierarchyConfig
	// Bpred configures the branch predictor being profiled.
	Bpred bpred.Config
	// ImmediateUpdate selects the naive profiling discipline of §2.1.3
	// (update right after lookup). The default, false, is the paper's
	// delayed-update FIFO profiling.
	ImmediateUpdate bool
	// FIFOSize is the delayed-update FIFO depth; it should equal the
	// instruction fetch queue size for speculative update at dispatch
	// (Table 2: 32). Defaults to 32.
	FIFOSize int
	// DepMax bounds dependency-distance distributions; defaults to
	// stats.MaxDependencyDistance (512).
	DepMax int
	// Warmup is the number of leading stream instructions that only
	// warm the cache and predictor state without being recorded in the
	// graph — used when profiling a sample from the middle of a longer
	// execution (§4.4's per-phase profiles).
	Warmup uint64
}

// warmupTag marks branch-profiler feeds from the warmup window; their
// outcomes are discarded.
const warmupTag = ^uint64(0)

func (o Options) withDefaults() Options {
	if o.FIFOSize == 0 {
		o.FIFOSize = 32
	}
	if o.DepMax == 0 {
		o.DepMax = stats.MaxDependencyDistance
	}
	return o
}

func (o Options) validate() error {
	if o.K < 0 || o.K > MaxK {
		return fmt.Errorf("sfg: order %d outside [0,%d]", o.K, MaxK)
	}
	if err := o.Hier.Validate(); err != nil {
		return err
	}
	return o.Bpred.Validate()
}

// profiler is the resumable core of statistical profiling: it consumes
// the committed stream chunk by chunk and accumulates an SFG. Profile
// drives one over a whole stream; ProfileSharded drives one per shard.
type profiler struct {
	g     *Graph
	hier  *cache.Hierarchy
	bprof bpred.BranchProfiler
	opts  Options

	hist histKey
	cur  *Edge
	// node caches the graph node whose Hist equals hist (nil until the
	// first recorded block). Successive transitions walk edge.To, so
	// steady-state profiling never looks the history key up in the node
	// map at all.
	node *Node

	// Warm-up state: warmLeft instructions only warm cache/predictor
	// state; afterwards recording still waits for the next block
	// boundary so it never starts mid-block (phantom instruction slots
	// would otherwise pollute the first edge). warmHist additionally
	// warms the k-block history key during the warm window — used by
	// sharded profiling, where the warm prefix is the true predecessor
	// stream, so the first recorded edge hangs off its real context.
	warmLeft      uint64
	awaitBoundary bool
	warmHist      bool
}

// newProfiler builds a profiler; opts must have defaults applied and be
// validated.
func newProfiler(opts Options, warm uint64, warmHist bool) *profiler {
	p := &profiler{
		g:             NewGraph(opts.K),
		hier:          cache.NewHierarchy(opts.Hier),
		opts:          opts,
		hist:          emptyHist(),
		warmLeft:      warm,
		awaitBoundary: warm > 0,
		warmHist:      warmHist,
	}
	pred := bpred.New(opts.Bpred)
	onBranch := func(tag uint64, o bpred.Outcome) {
		if tag == warmupTag {
			return
		}
		e := p.g.Edges[tag]
		e.BrCount++
		if o.Taken {
			e.BrTaken++
		}
		if o.Mispredicted {
			e.BrMispredict++
		} else if o.FetchRedirect {
			e.BrRedirect++
		}
	}
	if opts.ImmediateUpdate {
		p.bprof = &bpred.ImmediateProfiler{Pred: pred, Emit: onBranch}
	} else {
		p.bprof = bpred.NewDelayedProfiler(pred, opts.FIFOSize, onBranch)
	}
	return p
}

// warmInst runs one instruction through the cache and predictor models
// without recording it in the graph.
func (p *profiler) warmInst(d *trace.DynInst) {
	if p.warmHist && d.Index == 0 {
		p.hist = p.hist.shift(d.BlockID, p.g.K)
	}
	p.hier.AccessI(d.PC)
	if d.Class.IsMem() {
		p.hier.AccessD(d.EffAddr)
	}
	if d.Class.IsBranch() {
		p.bprof.Feed(d.PC, d.Class, d.Taken, d.NextPC, warmupTag)
	} else {
		p.bprof.Feed(d.PC, d.Class, false, 0, warmupTag)
	}
}

// feed processes one chunk of the committed stream.
func (p *profiler) feed(chunk []trace.DynInst) error {
	g := p.g
	for i := range chunk {
		d := &chunk[i]
		if d.BlockID < 0 {
			return fmt.Errorf("sfg: instruction %d lacks a basic-block annotation", d.Seq)
		}
		// Warm until the budget is spent AND a block boundary is
		// reached (see the profiler struct comment).
		if p.warmLeft > 0 {
			p.warmLeft--
			p.warmInst(d)
			continue
		}
		if p.awaitBoundary {
			if d.Index != 0 {
				p.warmInst(d)
				continue
			}
			p.awaitBoundary = false
		}
		cur := p.cur
		if d.Index == 0 || cur == nil {
			from := p.node
			if from == nil {
				from = g.node(p.hist)
			}
			cur = g.edge(from, d.BlockID)
			p.cur = cur
			cur.Count++
			p.hist = p.hist.shift(d.BlockID, g.K)
			// edge() wired cur.To to node(from.Hist.shift(block, K)),
			// which is exactly the node for the freshly shifted history —
			// no map lookup needed.
			to := g.Nodes[cur.To]
			to.Occ++
			p.node = to
			g.TotalBlocks++
		}
		g.TotalInstructions++

		// Instruction slot profile (classes are static per block; grow
		// the slot list the first time each slot is seen).
		idx := int(d.Index)
		for len(cur.Insts) <= idx {
			cur.Insts = append(cur.Insts, InstProfile{})
		}
		ip := &cur.Insts[idx]
		// Classes and operand counts are static per block; (re)assigning
		// them on every instance is cheaper than tracking first-sighting.
		ip.Class = d.Class
		ip.NumSrcs = d.NumSrcs

		// Dependency distances, conditioned on this edge (§2.1.1).
		for op := 0; op < int(d.NumSrcs); op++ {
			if dd := d.DepDist[op]; dd > 0 {
				if ip.Dep[op] == nil {
					ip.Dep[op] = stats.NewHistogram(p.opts.DepMax)
				}
				ip.Dep[op].Add(int(dd))
			}
		}
		if d.WAWDist > 0 {
			if ip.WAW == nil {
				ip.WAW = stats.NewHistogram(p.opts.DepMax)
			}
			ip.WAW.Add(int(d.WAWDist))
		}

		// I-side locality (§2.1.2), resolved to the instruction slot.
		cur.Fetches++
		ir := p.hier.AccessI(d.PC)
		if ir.L1Miss {
			cur.L1IMiss++
			ip.L1IMiss++
			if ir.L2Miss {
				cur.L2IMiss++
				ip.L2IMiss++
			}
		}
		if ir.TLBMiss {
			cur.ITLBMiss++
			ip.ITLBMiss++
		}

		// D-side locality. Stores access the hierarchy (they disturb
		// cache state) but only load events parameterise the synthetic
		// trace, matching §2.2 step 5.
		if d.Class.IsMem() {
			if ip.Addr == nil {
				ip.Addr = &AddrProfile{}
			}
			ip.Addr.observe(d.EffAddr)
			dr := p.hier.AccessD(d.EffAddr)
			if d.Class == isa.Store {
				cur.Stores++
			} else {
				cur.Loads++
				if dr.L1Miss {
					cur.L1DMiss++
					ip.L1DMiss++
					if dr.L2Miss {
						cur.L2DMiss++
						ip.L2DMiss++
					}
				}
				if dr.TLBMiss {
					cur.DTLBMiss++
					ip.DTLBMiss++
				}
			}
		}

		// Branch behaviour, through the configured update discipline.
		if d.Class.IsBranch() {
			p.bprof.Feed(d.PC, d.Class, d.Taken, d.NextPC, uint64(cur.ID))
		} else {
			p.bprof.Feed(d.PC, d.Class, false, 0, 0)
		}
	}
	return nil
}

// finish flushes the delayed branch FIFO at end of stream.
func (p *profiler) finish() { p.bprof.Flush() }

// Profile builds an order-k statistical flow graph from the committed
// instruction stream src (step 1 of Figure 1). The stream must carry
// valid BlockID/Index annotations (as produced by the functional
// executor). The stream is read through a pooled chunk buffer, so the
// hot loop pays no per-instruction interface dispatch and no
// steady-state allocation.
func Profile(src trace.Source, opts Options) (*Graph, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	p := newProfiler(opts, opts.Warmup, false)
	buf := trace.GetBatch()
	defer trace.PutBatch(buf)
	for n := src.NextBatch(buf); n > 0; n = src.NextBatch(buf) {
		if err := p.feed(buf[:n]); err != nil {
			return nil, err
		}
	}
	p.finish()
	return p.g, nil
}

// MispredictsPerKI returns branch mispredictions per 1,000 profiled
// instructions (the Fig. 3 metric, for the profiling disciplines).
func (g *Graph) MispredictsPerKI() float64 {
	if g.TotalInstructions == 0 {
		return 0
	}
	var m uint64
	for _, e := range g.Edges {
		m += e.BrMispredict
	}
	return 1000 * float64(m) / float64(g.TotalInstructions)
}
