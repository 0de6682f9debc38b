// Package hls implements the HLS statistical simulation baseline of
// Oskin, Chong and Farrens (ISCA 2000), as described in §4.3/§5 of the
// paper and used as the comparison point of Fig. 7.
//
// HLS models the workload far more coarsely than the statistical flow
// graph: it generates one hundred synthetic basic blocks whose sizes
// follow a normal distribution fitted to the workload, fills them with
// instructions drawn i.i.d. from the *global* instruction-mix
// distribution (no per-block instruction sequences), draws dependency
// distances from one global distribution, and applies global branch
// predictability and cache miss rates. The synthetic trace generator
// then walks this random graph.
//
// The defining deficiency — no correlation between instruction
// sequences, dependencies and basic blocks — is exactly what the SFG
// fixes, and is faithfully reproduced here. Both models are simulated
// on the same trace-driven timing core, so Fig. 7 isolates the workload
// model difference (the original HLS also used a simplified processor
// model; see DESIGN.md).
package hls

import (
	"fmt"
	"math"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// NumBlocks is the number of synthetic basic blocks HLS generates.
const NumBlocks = 100

// Profile is the global (uncorrelated) statistical profile HLS uses.
type Profile struct {
	Instructions uint64
	Blocks       uint64

	BlockSizeMean float64
	BlockSizeSD   float64

	// Body instruction mix (non-branch classes) and terminator mix
	// (branch classes).
	BodyMix   [isa.NumClasses]uint64
	BranchMix [isa.NumClasses]uint64

	// NumSrcs[c] accumulates operand counts per class; divided by class
	// frequency at generation time.
	NumSrcs [isa.NumClasses]uint64

	// Dep is the single global dependency-distance distribution;
	// DepOperands counts operands observed, DepPresent those that
	// carried a dependency.
	Dep         *stats.Histogram
	DepOperands uint64
	DepPresent  uint64

	// Global branch characteristics.
	BrCount, BrTaken, BrMispredict, BrRedirect uint64

	// Global cache characteristics.
	Fetches, L1IMiss, L2IMiss, ITLBMiss uint64
	Loads, L1DMiss, L2DMiss, DTLBMiss   uint64
}

// ProfileStream measures the global HLS profile from a committed
// instruction stream annotated with pre-classified locality flags.
// Use Annotate to produce such a stream from live cache/bpred models,
// mirroring how the SFG profiler measures the same events.
func ProfileStream(src trace.Source) (*Profile, error) {
	p := &Profile{Dep: stats.NewHistogram(stats.MaxDependencyDistance)}
	// HLS basic blocks are branch-delimited (every synthetic block ends
	// in a branch), so block-size statistics are measured over runs of
	// instructions ending at each branch.
	var curLen, sumLen, sumLen2 float64
	flushBlock := func() {
		if curLen > 0 {
			p.Blocks++
			sumLen += curLen
			sumLen2 += curLen * curLen
		}
		curLen = 0
	}
	buf := trace.GetBatch()
	defer trace.PutBatch(buf)
	for n := src.NextBatch(buf); n > 0; n = src.NextBatch(buf) {
		for i := range buf[:n] {
			d := &buf[i]
			curLen++
			if d.Class.IsBranch() {
				flushBlock()
			}
			p.Instructions++
			p.Fetches++
			if d.Flags.Has(trace.FlagL1IMiss) {
				p.L1IMiss++
				if d.Flags.Has(trace.FlagL2IMiss) {
					p.L2IMiss++
				}
			}
			if d.Flags.Has(trace.FlagITLBMiss) {
				p.ITLBMiss++
			}
			if d.Class.IsBranch() {
				p.BranchMix[d.Class]++
				p.BrCount++
				if d.Taken {
					p.BrTaken++
				}
				if d.Flags.Has(trace.FlagBrMispredict) {
					p.BrMispredict++
				} else if d.Flags.Has(trace.FlagBrFetchRedirect) {
					p.BrRedirect++
				}
			} else {
				p.BodyMix[d.Class]++
			}
			if d.Class == isa.Load {
				p.Loads++
				if d.Flags.Has(trace.FlagL1DMiss) {
					p.L1DMiss++
					if d.Flags.Has(trace.FlagL2DMiss) {
						p.L2DMiss++
					}
				}
				if d.Flags.Has(trace.FlagDTLBMiss) {
					p.DTLBMiss++
				}
			}
			p.NumSrcs[d.Class] += uint64(d.NumSrcs)
			for op := 0; op < int(d.NumSrcs); op++ {
				p.DepOperands++
				if dd := d.DepDist[op]; dd > 0 {
					p.DepPresent++
					p.Dep.Add(int(dd))
				}
			}
		}
	}
	flushBlock()
	if p.Blocks == 0 {
		return nil, fmt.Errorf("hls: empty stream")
	}
	mean := sumLen / float64(p.Blocks)
	p.BlockSizeMean = mean
	varr := sumLen2/float64(p.Blocks) - mean*mean
	if varr < 0 {
		varr = 0
	}
	p.BlockSizeSD = math.Sqrt(varr)
	return p, nil
}

// Annotate wraps a committed instruction stream with live cache and
// branch-predictor models, filling each record's locality flags so
// ProfileStream can measure global miss and misprediction rates. It
// uses immediate predictor update — the discipline of the original HLS
// era; the paper's delayed-update improvement is specific to the SFG
// framework (§2.1.3).
func Annotate(src trace.Source, hier cache.HierarchyConfig, bp bpred.Config) trace.Source {
	return &annotator{src: src, h: cache.NewHierarchy(hier), pred: bpred.New(bp)}
}

// annotator is Annotate's stream: each chunk of src, flagged in place.
type annotator struct {
	src  trace.Source
	h    *cache.Hierarchy
	pred *bpred.Predictor
}

// NextBatch implements trace.Source.
func (a *annotator) NextBatch(dst []trace.DynInst) int {
	n := a.src.NextBatch(dst)
	for i := range dst[:n] {
		out := &dst[i]
		out.Flags = 0
		ir := a.h.AccessI(out.PC)
		if ir.L1Miss {
			out.Flags |= trace.FlagL1IMiss
			if ir.L2Miss {
				out.Flags |= trace.FlagL2IMiss
			}
		}
		if ir.TLBMiss {
			out.Flags |= trace.FlagITLBMiss
		}
		if out.Class.IsMem() {
			dr := a.h.AccessD(out.EffAddr)
			if out.Class == isa.Load {
				if dr.L1Miss {
					out.Flags |= trace.FlagL1DMiss
					if dr.L2Miss {
						out.Flags |= trace.FlagL2DMiss
					}
				}
				if dr.TLBMiss {
					out.Flags |= trace.FlagDTLBMiss
				}
			}
		}
		if out.Class.IsBranch() {
			pr := a.pred.Lookup(out.PC, out.Class)
			o := bpred.Classify(pr, out.Class, out.Taken, out.NextPC)
			a.pred.Update(out.PC, out.Class, out.Taken, out.NextPC)
			if o.Mispredicted {
				out.Flags |= trace.FlagBrMispredict
			} else if o.FetchRedirect {
				out.Flags |= trace.FlagBrFetchRedirect
			}
		}
	}
	return n
}

// synthetic basic block of the HLS model.
type hlsBlock struct {
	classes []isa.Class
	numSrcs []uint8
}

// TraceSource generates the HLS synthetic trace: a random walk over
// NumBlocks i.i.d.-filled basic blocks with global event probabilities.
type TraceSource struct {
	p      *Profile
	rng    *stats.RNG
	blocks []hlsBlock

	n       uint64 // instructions to generate
	seq     uint64
	buf     []trace.DynInst
	bufPos  int
	hasDest []bool
}

const destRing = 2048

// NewTrace builds the 100 synthetic blocks and returns a source that
// produces n instructions.
func (p *Profile) NewTrace(n uint64, seed uint64) *TraceSource {
	rng := stats.NewRNG(seed)
	t := &TraceSource{p: p, rng: rng, n: n, hasDest: make([]bool, destRing)}

	bodyCDF := stats.NewCDF(p.BodyMix[:])
	brCDF := stats.NewCDF(p.BranchMix[:])
	avgSrcs := func(c isa.Class) uint8 {
		freq := p.BodyMix[c] + p.BranchMix[c]
		if freq == 0 {
			return 1
		}
		v := (float64(p.NumSrcs[c])/float64(freq) + 0.5)
		if v < 0 {
			v = 0
		}
		if v > float64(isa.MaxSrcOperands) {
			v = float64(isa.MaxSrcOperands)
		}
		return uint8(v)
	}
	haveBranches := brCDF.Total() > 0
	for i := 0; i < NumBlocks; i++ {
		size := int(p.BlockSizeMean + p.BlockSizeSD*rng.NormFloat64() + 0.5)
		if size < 1 {
			size = 1
		}
		var b hlsBlock
		body := size
		if haveBranches {
			body-- // last slot is the terminating branch
		}
		for j := 0; j < body; j++ {
			c := isa.Class(bodyCDF.Sample(rng.Float64()))
			b.classes = append(b.classes, c)
			b.numSrcs = append(b.numSrcs, avgSrcs(c))
		}
		if haveBranches {
			c := isa.Class(brCDF.Sample(rng.Float64()))
			b.classes = append(b.classes, c)
			b.numSrcs = append(b.numSrcs, avgSrcs(c))
		}
		t.blocks = append(t.blocks, b)
	}
	return t
}

// NextBatch implements trace.Source: it drains whole blocks into dst,
// copying straight out of the block buffer.
func (t *TraceSource) NextBatch(dst []trace.DynInst) int {
	n := 0
	for n < len(dst) {
		if t.bufPos >= len(t.buf) {
			if t.seq >= t.n {
				break
			}
			t.emitBlock()
			continue
		}
		c := copy(dst[n:], t.buf[t.bufPos:])
		t.bufPos += c
		n += c
	}
	return n
}

func (t *TraceSource) bernoulli(num, den uint64) bool {
	if num == 0 || den == 0 {
		return false
	}
	return t.rng.Float64()*float64(den) < float64(num)
}

func (t *TraceSource) emitBlock() {
	t.buf = t.buf[:0]
	t.bufPos = 0
	p := t.p
	// HLS walks its block graph randomly: uniform next block.
	b := &t.blocks[t.rng.Intn(len(t.blocks))]
	depP := float64(0)
	if p.DepOperands > 0 {
		depP = float64(p.DepPresent) / float64(p.DepOperands)
	}
	for i, c := range b.classes {
		d := trace.DynInst{
			Seq:     t.seq,
			Class:   c,
			NumSrcs: b.numSrcs[i],
			BlockID: -1,
			Index:   int16(i),
		}
		for op := 0; op < int(d.NumSrcs); op++ {
			if p.Dep.Total() == 0 || t.rng.Float64() >= depP {
				continue
			}
			for try := 0; try < 1000; try++ {
				delta := uint64(p.Dep.Sample(t.rng.Float64()))
				if delta > t.seq || !t.hasDest[(t.seq-delta)%destRing] {
					continue
				}
				d.DepDist[op] = uint32(delta)
				break
			}
		}
		if t.bernoulli(p.L1IMiss, p.Fetches) {
			d.Flags |= trace.FlagL1IMiss
			if t.bernoulli(p.L2IMiss, p.L1IMiss) {
				d.Flags |= trace.FlagL2IMiss
			}
		}
		if t.bernoulli(p.ITLBMiss, p.Fetches) {
			d.Flags |= trace.FlagITLBMiss
		}
		if c == isa.Load {
			if t.bernoulli(p.L1DMiss, p.Loads) {
				d.Flags |= trace.FlagL1DMiss
				if t.bernoulli(p.L2DMiss, p.L1DMiss) {
					d.Flags |= trace.FlagL2DMiss
				}
			}
			if t.bernoulli(p.DTLBMiss, p.Loads) {
				d.Flags |= trace.FlagDTLBMiss
			}
		}
		if c.IsBranch() {
			d.Taken = t.bernoulli(p.BrTaken, p.BrCount)
			u := t.rng.Float64() * float64(p.BrCount)
			switch {
			case u < float64(p.BrMispredict):
				d.Flags |= trace.FlagBrMispredict
			case u < float64(p.BrMispredict+p.BrRedirect):
				d.Flags |= trace.FlagBrFetchRedirect
			}
		}
		t.hasDest[t.seq%destRing] = c.HasDest()
		t.seq++
		t.buf = append(t.buf, d)
		if t.seq >= t.n {
			break
		}
	}
}

var _ trace.Source = (*TraceSource)(nil)
