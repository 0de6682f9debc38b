package program

import (
	"math"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Executor functionally executes a Program, producing the committed
// dynamic instruction stream (a trace.Source). Execution is fully
// deterministic for a given (program, seed) pair: branch directions,
// indirect targets and random addresses are all derived from counted
// hashes, never from shared global state.
//
// The executor also resolves register dataflow into RAW dependency
// distances (DynInst.DepDist) via last-writer tracking, so downstream
// consumers — profiler and timing core alike — never need register
// semantics.
type Executor struct {
	prog *Program
	seed uint64

	cur int // current block ID
	idx int // next instruction index within the block
	seq uint64

	// lastWriter[r] is 1 + the sequence number of the most recent
	// instruction that wrote register r; 0 means never written.
	lastWriter [isa.NumRegs]uint64

	branches []branchState // per block
	mems     []memState    // per static instruction (flat index)
	instBase []int         // flat index of instruction 0 of each block
}

type branchState struct {
	iter       int    // BranchLoop: iterations since last exit
	patternPos int    // BranchPattern: position in the pattern
	draws      uint64 // BranchBiased / BranchIndirect: decision counter
	rngSeed    uint64 // per-branch hash seed
}

type memState struct {
	pos   uint64 // MemStride: current offset
	draws uint64 // MemRandom: access counter
}

// NewExecutor returns an executor positioned at the program entry.
// The program must have been validated (or at least laid out).
func NewExecutor(p *Program, seed uint64) *Executor {
	p.Layout()
	e := &Executor{
		prog:     p,
		seed:     seed,
		cur:      p.Entry,
		branches: make([]branchState, len(p.Blocks)),
		instBase: make([]int, len(p.Blocks)),
	}
	flat := 0
	for i, b := range p.Blocks {
		e.instBase[i] = flat
		flat += len(b.Instrs)
		e.branches[i].rngSeed = mix(seed, uint64(i)*0x9e3779b97f4a7c15+1)
	}
	e.mems = make([]memState, flat)
	return e
}

// mix is a splitmix64-style hash combiner used for all counted
// pseudo-random decisions.
func mix(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashFloat maps a counted hash to a uniform float64 in [0,1).
func hashFloat(a, b uint64) float64 {
	return float64(mix(a, b)>>11) / (1 << 53)
}

// Seq returns the number of instructions emitted so far.
func (e *Executor) Seq() uint64 { return e.seq }

// step executes one instruction into out, setting every field.
func (e *Executor) step(out *trace.DynInst) {
	b := e.prog.Blocks[e.cur]
	in := &b.Instrs[e.idx]

	out.Seq = e.seq
	out.PC = e.prog.PC(e.cur, e.idx)
	out.Class = in.Class
	out.BlockID = int32(e.cur)
	out.Index = int16(e.idx)
	out.Flags = 0
	out.Taken = false
	out.EffAddr = 0

	// Dataflow: RAW distance per source operand.
	out.NumSrcs = uint8(len(in.Srcs))
	for i := range out.DepDist {
		out.DepDist[i] = 0
	}
	for i, r := range in.Srcs {
		if r == isa.ZeroReg {
			continue
		}
		if w := e.lastWriter[r]; w != 0 {
			d := e.seq - (w - 1)
			if d > math.MaxUint32 {
				d = math.MaxUint32
			}
			out.DepDist[i] = uint32(d)
		}
	}
	out.WAWDist = 0
	if in.Class.HasDest() && in.Dst != isa.ZeroReg {
		if w := e.lastWriter[in.Dst]; w != 0 {
			d := e.seq - (w - 1)
			if d > math.MaxUint32 {
				d = math.MaxUint32
			}
			out.WAWDist = uint32(d)
		}
		e.lastWriter[in.Dst] = e.seq + 1
	}

	// Effective address for memory operations.
	if in.Mem != nil {
		out.EffAddr = e.genAddr(in)
	}

	// Control flow: advance to the next instruction / block.
	lastInBlock := e.idx == len(b.Instrs)-1
	if !lastInBlock {
		e.idx++
		out.NextPC = e.prog.PC(e.cur, e.idx)
	} else if b.Branch == nil {
		e.cur = b.FallTarget
		e.idx = 0
		out.NextPC = e.prog.PC(e.cur, 0)
	} else {
		next := e.evalBranch(b, out)
		e.cur = next
		e.idx = 0
		out.NextPC = e.prog.PC(next, 0)
	}

	e.seq++
}

// evalBranch decides the direction/target of block b's terminating
// branch, records it in out, and returns the successor block.
func (e *Executor) evalBranch(b *Block, out *trace.DynInst) int {
	st := &e.branches[b.ID]
	sp := b.Branch
	switch sp.Kind {
	case BranchLoop:
		st.iter++
		if st.iter < sp.Count {
			out.Taken = true
			return b.TakenTarget
		}
		st.iter = 0
		return b.FallTarget
	case BranchBiased:
		st.draws++
		if hashFloat(st.rngSeed, st.draws) < sp.P {
			out.Taken = true
			return b.TakenTarget
		}
		return b.FallTarget
	case BranchPattern:
		taken := (sp.Pattern>>uint(st.patternPos))&1 == 1
		st.patternPos++
		if st.patternPos >= sp.PatternLen {
			st.patternPos = 0
		}
		if taken {
			out.Taken = true
			return b.TakenTarget
		}
		return b.FallTarget
	case BranchIndirect:
		out.Taken = true // indirect branches always redirect fetch
		st.draws++
		// Zipf-ish skew: square the uniform variate so early targets
		// dominate, as switch statements typically have hot cases.
		u := hashFloat(st.rngSeed, st.draws)
		i := int(u * u * float64(len(sp.Targets)))
		if i >= len(sp.Targets) {
			i = len(sp.Targets) - 1
		}
		return sp.Targets[i]
	default:
		panic("program: unknown branch kind")
	}
}

// genAddr produces the effective address of a memory instruction.
func (e *Executor) genAddr(in *Inst) uint64 {
	// Identify the static instruction by pointer-independent flat index:
	// derive it from the current position, which is cheap and exact.
	key := e.instBase[e.cur] + e.idx
	st := &e.mems[key]
	m := in.Mem
	switch m.Kind {
	case MemStride:
		a := m.Base + st.pos
		st.pos += m.Stride
		if st.pos >= m.Size {
			st.pos = 0
		}
		return a
	case MemRandom:
		st.draws++
		off := mix(e.seed^uint64(key)<<20, st.draws) % max64(m.Size, 8)
		return m.Base + off&^7
	case MemStack:
		st.draws++
		// A handful of hot slots.
		slot := mix(uint64(key), st.draws) % max64(m.Size/8, 1)
		return m.Base + slot*8
	default:
		panic("program: unknown mem kind")
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// NextBatch implements trace.Source. A synthetic program never
// terminates, so every batch comes back full; callers bound runs with
// trace.LimitSource (which clips the final chunk) or an explicit count.
func (e *Executor) NextBatch(dst []trace.DynInst) int {
	for i := range dst {
		e.step(&dst[i])
	}
	return len(dst)
}

// Skip fast-forwards the executor by n instructions without producing
// output records (used to position phase windows).
func (e *Executor) Skip(n uint64) {
	var d trace.DynInst
	for i := uint64(0); i < n; i++ {
		e.step(&d)
	}
}

// Run collects the next n instructions into a slice.
func (e *Executor) Run(n int) []trace.DynInst {
	out := make([]trace.DynInst, n)
	e.NextBatch(out)
	return out
}

var _ trace.Source = (*Executor)(nil)
