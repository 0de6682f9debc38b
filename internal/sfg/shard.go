package sfg

import (
	"slices"
	"sync"

	"repro/internal/stats"
	"repro/internal/trace"
)

// ShardOptions configures parallel sharded profiling.
type ShardOptions struct {
	// Shards is the maximum number of concurrently profiled intervals.
	// Values <= 1 select the sequential profiler (the golden
	// reference).
	Shards int
	// Interval is the slab length in instructions. The result depends
	// on Interval (and Warmup) but NOT on Shards: slabs are fixed by
	// the stream position and merged in stream order, so any worker
	// count reproduces the same graph. Defaults to 65536.
	Interval uint64
	// Warmup is the per-shard warm window: each shard replays this many
	// instructions of the true predecessor stream (spanning as many
	// earlier slabs as needed) through its private cache, predictor and
	// history state before recording. Longer windows shrink the
	// cold-state approximation — large caches and the branch predictor
	// carry state far beyond one slab — at the cost of Warmup extra
	// instructions of work per shard. Defaults to Interval.
	Warmup uint64
}

// DefaultShardInterval is the default profiling slab length.
const DefaultShardInterval = 65536

func (so ShardOptions) withDefaults() ShardOptions {
	if so.Interval == 0 {
		so.Interval = DefaultShardInterval
	}
	if so.Warmup == 0 {
		so.Warmup = so.Interval
	}
	return so
}

// ProfileSharded is Profile with interval-sharded parallelism (the
// opt-in fast path for long streams): the stream is chopped into
// Interval-length slabs, each profiled concurrently into a private
// graph by a profiler warmed on the Warmup-instruction window of the
// true predecessor stream, and the per-edge statistics — all additive —
// are merged in slab order.
//
// Approximation contract: recording is exact with respect to block
// structure (a block is recorded by the shard its first instruction
// falls in, including its tail in the next slab), and each shard's
// history key, caches and predictor are warmed on the true predecessor
// stream, but state older than the warm window is lost, so locality and
// misprediction counts can differ slightly from the sequential profile
// (bounded by the accuracy test at 0.5%). Results are deterministic for
// fixed Interval/Warmup regardless of Shards. The whole stream is
// materialised in memory (~88 B/instruction) for the duration of the
// call — the price of random access to slab boundaries.
func ProfileSharded(src trace.Source, opts Options, so ShardOptions) (*Graph, error) {
	opts = opts.withDefaults()
	so = so.withDefaults()
	if so.Shards <= 1 {
		return Profile(src, opts)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}

	insts := trace.Collect(src, 0)
	// The caller-requested warm window is consumed by shard 0 with the
	// sequential semantics (state warm, history cold).
	prefix := insts
	if uint64(len(prefix)) > opts.Warmup {
		prefix = insts[:opts.Warmup]
	}
	body := insts[len(prefix):]
	nSlabs := int((uint64(len(body)) + so.Interval - 1) / so.Interval)
	if nSlabs <= 1 {
		return Profile(trace.NewSliceSource(insts), opts)
	}
	slab := func(i int) []trace.DynInst {
		lo := uint64(i) * so.Interval
		hi := min(lo+so.Interval, uint64(len(body)))
		return body[lo:hi]
	}

	shards := make([]*Graph, nSlabs)
	errs := make([]error, nSlabs)
	sem := make(chan struct{}, so.Shards)
	var wg sync.WaitGroup
	for si := 0; si < nSlabs; si++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(si int) {
			defer wg.Done()
			defer func() { <-sem }()
			warm := prefix
			warmHist := false
			if si > 0 {
				// The warm window is the true predecessor stream,
				// counted back from the slab start across slab (and
				// caller-prefix) boundaries.
				lo := uint64(len(prefix)) + uint64(si)*so.Interval
				start := uint64(0)
				if lo > so.Warmup {
					start = lo - so.Warmup
				}
				warm = insts[start:lo]
				warmHist = true
			}
			p := newProfiler(opts, uint64(len(warm)), warmHist)
			if err := p.feed(warm); err != nil {
				errs[si] = err
				return
			}
			if err := p.feed(slab(si)); err != nil {
				errs[si] = err
				return
			}
			// Finish the block straddling the slab boundary: its tail
			// (everything before the next slab's first block start)
			// belongs to this shard.
			if si+1 < nSlabs {
				if err := p.feed(blockTail(slab(si + 1))); err != nil {
					errs[si] = err
					return
				}
			}
			p.finish()
			shards[si] = p.g
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	g := NewGraph(opts.K)
	for _, s := range shards {
		g.absorb(s)
	}
	return g, nil
}

// blockTail returns the prefix of a slab that belongs to a block begun
// in the previous slab: everything before the first block start.
func blockTail(s []trace.DynInst) []trace.DynInst {
	for i := range s {
		if s[i].Index == 0 {
			return s[:i]
		}
	}
	return s
}

// absorb merges the shard-local graph s into g. Nodes and edges are
// created in s's ID order, and ProfileSharded absorbs shards in slab
// order, so the merged node/edge numbering is deterministic regardless
// of how the shard goroutines were scheduled.
func (g *Graph) absorb(s *Graph) {
	for _, sn := range s.Nodes {
		g.node(sn.Hist).Occ += sn.Occ
	}
	for _, se := range s.Edges {
		from := g.node(s.Nodes[se.From].Hist)
		e := g.edge(from, se.Block)
		e.Count += se.Count
		e.BrCount += se.BrCount
		e.BrTaken += se.BrTaken
		e.BrMispredict += se.BrMispredict
		e.BrRedirect += se.BrRedirect
		e.Fetches += se.Fetches
		e.L1IMiss += se.L1IMiss
		e.L2IMiss += se.L2IMiss
		e.ITLBMiss += se.ITLBMiss
		e.Loads += se.Loads
		e.L1DMiss += se.L1DMiss
		e.L2DMiss += se.L2DMiss
		e.DTLBMiss += se.DTLBMiss
		e.Stores += se.Stores
		for len(e.Insts) < len(se.Insts) {
			e.Insts = append(e.Insts, InstProfile{})
		}
		for i := range se.Insts {
			e.Insts[i].merge(&se.Insts[i])
		}
	}
	g.TotalInstructions += s.TotalInstructions
	g.TotalBlocks += s.TotalBlocks
}

// merge folds the shard-local slot profile sp into ip.
func (ip *InstProfile) merge(sp *InstProfile) {
	ip.Class = sp.Class
	ip.NumSrcs = sp.NumSrcs
	for op, h := range sp.Dep {
		if h == nil {
			continue
		}
		if ip.Dep[op] == nil {
			ip.Dep[op] = stats.NewHistogram(h.Max)
		}
		ip.Dep[op].Merge(h)
	}
	if sp.WAW != nil {
		if ip.WAW == nil {
			ip.WAW = stats.NewHistogram(sp.WAW.Max)
		}
		ip.WAW.Merge(sp.WAW)
	}
	ip.L1IMiss += sp.L1IMiss
	ip.L2IMiss += sp.L2IMiss
	ip.ITLBMiss += sp.ITLBMiss
	ip.L1DMiss += sp.L1DMiss
	ip.L2DMiss += sp.L2DMiss
	ip.DTLBMiss += sp.DTLBMiss
	if sp.Addr != nil {
		if ip.Addr == nil {
			ip.Addr = &AddrProfile{}
		}
		ip.Addr.Merge(sp.Addr)
	}
}

// Merge folds o into a. Stride admission at the MaxDistinctStrides
// capacity boundary processes o's deltas in sorted order, keeping the
// merged profile deterministic (map iteration order must not leak into
// results).
func (a *AddrProfile) Merge(o *AddrProfile) {
	if o == nil || o.Count == 0 {
		return
	}
	if a.Count == 0 {
		a.First, a.Min, a.Max = o.First, o.Min, o.Max
	} else {
		if o.Min < a.Min {
			a.Min = o.Min
		}
		if o.Max > a.Max {
			a.Max = o.Max
		}
	}
	a.Count += o.Count
	a.Overflow += o.Overflow
	if len(o.Strides) > 0 {
		deltas := make([]int64, 0, len(o.Strides))
		for d := range o.Strides {
			deltas = append(deltas, d)
		}
		slices.Sort(deltas)
		for _, d := range deltas {
			c := o.Strides[d]
			if _, ok := a.Strides[d]; ok || len(a.Strides) < MaxDistinctStrides {
				if a.Strides == nil {
					a.Strides = make(map[int64]uint64)
				}
				a.Strides[d] += c
			} else {
				a.Overflow += c
			}
		}
	}
	// prev/hasPrev stay zero: a merged profile is never fed further
	// observations.
}
