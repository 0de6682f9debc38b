// Package trace defines the dynamic instruction stream exchanged
// between the functional executor, the statistical profiler and the
// superscalar timing core.
//
// A single record type, DynInst, serves both execution-driven
// simulation (where locality events — cache misses, branch
// mispredictions — are computed live by cache and predictor models) and
// synthetic-trace simulation (where the statistical trace generator
// pre-assigns the same events as per-instruction flags, §2.2 steps 5-7).
//
// The stream is one interface, Source, read a chunk at a time: every
// producer (the functional executor, the synthetic generators, the
// trace-file reader) fills caller-owned chunks, and every consumer reads
// them, most through a pooled GetBatch buffer or a Spool window.
package trace

import (
	"slices"
	"sync"

	"repro/internal/isa"
)

// Flags carries the pre-assigned locality events of a synthetic-trace
// record. Execution-driven simulation ignores them and computes the
// events from live cache/branch-predictor state instead.
type Flags uint16

const (
	FlagL1IMiss Flags = 1 << iota // instruction misses in the L1 I-cache
	FlagL2IMiss                   // ... and in the unified L2
	FlagITLBMiss
	FlagL1DMiss // load/store misses in the L1 D-cache
	FlagL2DMiss // ... and in the unified L2
	FlagDTLBMiss
	FlagBrMispredict    // branch direction (or indirect target) mispredicted
	FlagBrFetchRedirect // BTB miss with correct direction prediction
)

// Has reports whether all bits in f are set.
func (fl Flags) Has(f Flags) bool { return fl&f == f }

// DynInst is one dynamic instruction. The zero value is an int-alu
// instruction with no operands.
type DynInst struct {
	Seq     uint64 // position in the committed-path stream, starting at 0
	PC      uint64 // instruction address
	NextPC  uint64 // address of the next dynamic instruction (target or fall-through)
	EffAddr uint64 // effective address for loads/stores

	// DepDist holds the RAW dependency distance of each source operand:
	// the number of dynamic instructions between the producer and this
	// consumer (1 = the immediately preceding instruction). 0 means the
	// operand carries no modelled dependency.
	DepDist [isa.MaxSrcOperands]uint32

	// WAWDist is the distance to the previous writer of this
	// instruction's destination register (0 = none). Register renaming
	// removes these dependencies, so out-of-order simulation ignores
	// them; the in-order pipeline extension (§2.1.1's suggested
	// extension) enforces them.
	WAWDist uint32

	BlockID int32 // static basic-block id, -1 if unknown
	Index   int16 // index of the instruction within its basic block
	NumSrcs uint8 // number of source operands actually used
	Class   isa.Class
	Taken   bool  // actual branch direction (branches only)
	Flags   Flags // pre-assigned locality events (synthetic mode)
}

// IsBranch reports whether the instruction transfers control.
func (d *DynInst) IsBranch() bool { return d.Class.IsBranch() }

// DefaultBatchSize is the chunk length producers and consumers use by
// default. It is large enough to amortise interface dispatch to well
// under a nanosecond per instruction and small enough (72 KiB of
// DynInst) to stay cache-resident.
const DefaultBatchSize = 1024

// Source produces the dynamic instruction stream in chunks, so no hot
// path pays an interface call per instruction (functional execution,
// profiling, synthetic generation, fetch).
//
// Contract: NextBatch fills a prefix of dst and returns its length.
// Every element of dst[:n] must be fully initialised — dst may hold
// stale records recycled from a previous refill. A return of 0 means
// end of stream and is sticky: subsequent calls keep returning 0. A
// short (non-zero) return does NOT signal end of stream; callers must
// keep calling until 0. NextBatch must not retain dst.
type Source interface {
	NextBatch(dst []DynInst) int
}

// batchPool recycles chunk buffers so steady-state streaming does not
// allocate.
var batchPool = sync.Pool{
	New: func() any { return make([]DynInst, DefaultBatchSize) },
}

// GetBatch returns a DefaultBatchSize chunk buffer from the shared
// pool; return it with PutBatch when done.
func GetBatch() []DynInst { return batchPool.Get().([]DynInst) }

// PutBatch returns a chunk buffer obtained from GetBatch to the pool.
func PutBatch(buf []DynInst) {
	if cap(buf) >= DefaultBatchSize {
		batchPool.Put(buf[:DefaultBatchSize])
	}
}

// Batched returns src unchanged. Only statbench's layer-by-layer replay
// (bench/statbench/replay.go) still calls it; it goes when the replay
// is deleted (ROADMAP, "The daemon explains its own time").
func Batched(src Source) Source { return src }

// SliceSource replays a pre-materialised stream. It is primarily used
// by tests and by the synthetic-trace pipeline when traces are small
// enough to hold in memory.
type SliceSource struct {
	Insts []DynInst
	pos   int
}

// NewSliceSource returns a Source over insts.
func NewSliceSource(insts []DynInst) *SliceSource {
	return &SliceSource{Insts: insts}
}

// NextBatch implements Source, copying straight out of the backing
// slice.
func (s *SliceSource) NextBatch(dst []DynInst) int {
	n := copy(dst, s.Insts[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the source to the beginning of the stream.
func (s *SliceSource) Reset() { s.pos = 0 }

// LimitSource truncates an underlying source after N instructions. It
// clips the final chunk at the limit, so it never reads past N from
// Src.
type LimitSource struct {
	Src  Source
	N    uint64
	seen uint64
}

// NextBatch implements Source.
func (l *LimitSource) NextBatch(dst []DynInst) int {
	if l.seen >= l.N {
		return 0
	}
	if rem := l.N - l.seen; uint64(len(dst)) > rem {
		dst = dst[:rem]
	}
	n := l.Src.NextBatch(dst)
	l.seen += uint64(n)
	return n
}

// Collect drains up to max instructions from src into a slice. A max of
// 0 means no limit. Chunks are read straight into the result, and never
// past max.
func Collect(src Source, max int) []DynInst {
	var out []DynInst
	for {
		k := DefaultBatchSize
		if max > 0 {
			if k = min(k, max-len(out)); k == 0 {
				return out
			}
		}
		out = slices.Grow(out, k)
		n := src.NextBatch(out[len(out) : len(out)+k])
		if n == 0 {
			return out
		}
		out = out[:len(out)+n]
	}
}

// FuncSource adapts a closure to the Source interface. The closure
// fully sets *out and reports whether it produced an instruction; once
// it returns false it must keep returning false.
type FuncSource func(out *DynInst) bool

// NextBatch implements Source.
func (f FuncSource) NextBatch(dst []DynInst) int {
	n := 0
	for n < len(dst) && f(&dst[n]) {
		n++
	}
	return n
}
