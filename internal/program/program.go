// Package program provides the workload substrate of the framework: a
// static program representation (a control-flow graph of basic blocks
// over the abstract ISA), deterministic branch and address-generation
// models, a generator that synthesises benchmark programs from tunable
// "personalities", and a functional executor that turns a program into
// the dynamic instruction stream consumed by the profiler and the
// timing simulators.
//
// This substitutes for the SPEC CINT2000 Alpha binaries used in the
// paper (see DESIGN.md): statistical simulation is evaluated relative
// to execution-driven simulation of the *same* stream, so any concrete,
// reproducible workload with realistic control-flow, dataflow and
// locality structure preserves the methodology.
package program

import (
	"fmt"

	"repro/internal/isa"
)

// InstBytes is the size of one encoded instruction; PCs advance by this
// amount (as on Alpha, a fixed-width 64-bit RISC encoding would be 4
// bytes; we use 8 to make code footprints stress the I-cache/I-TLB at
// our reduced scale).
const InstBytes = 8

// CodeBase is the address of the first instruction of every program.
const CodeBase uint64 = 0x0040_0000

// DataBase is the lowest data address handed to address generators.
const DataBase uint64 = 0x1000_0000

// StackBase is the base of the region used by stack-like accesses.
const StackBase uint64 = 0x7fff_0000

// BranchKind selects the behavioural model of a block-terminating
// branch.
type BranchKind uint8

const (
	// BranchLoop is a backward loop branch: taken Count-1 consecutive
	// times, then not-taken once (loop exit), repeating.
	BranchLoop BranchKind = iota
	// BranchBiased is taken with probability P, independently each time
	// (data-dependent branch).
	BranchBiased
	// BranchPattern repeats a fixed taken/not-taken pattern of
	// PatternLen bits from Pattern (LSB first) — strongly predictable by
	// local-history predictors, poorly by bimodal ones.
	BranchPattern
	// BranchIndirect is always taken; the target cycles among Targets
	// with a biased-random selection (models switch statements and
	// virtual calls; stresses the BTB).
	BranchIndirect
)

// BranchSpec describes the terminating branch of a basic block. A nil
// BranchSpec on a Block means the block falls through unconditionally
// (a merge block ending at a branch target).
type BranchSpec struct {
	Kind       BranchKind
	Count      int     // BranchLoop: trip count (>= 1)
	P          float64 // BranchBiased: probability of taken
	Pattern    uint64  // BranchPattern: direction bits, LSB first
	PatternLen int     // BranchPattern: period in [1, 64]
	Targets    []int   // BranchIndirect: candidate target block IDs (>= 1)
}

// MemKind selects the address-generation model of a load or store.
type MemKind uint8

const (
	// MemStride walks Base..Base+Size with a fixed stride, wrapping.
	MemStride MemKind = iota
	// MemRandom picks a pseudo-random (deterministic) aligned address in
	// [Base, Base+Size).
	MemRandom
	// MemStack accesses a small, hot, fixed set of addresses near
	// StackBase (spills, locals): essentially always cache hits.
	MemStack
)

// MemSpec describes how a static load/store generates effective
// addresses over time.
type MemSpec struct {
	Kind   MemKind
	Base   uint64
	Size   uint64 // region size in bytes (power of two preferred)
	Stride uint64 // MemStride only
}

// Inst is one static instruction: ISA-level class/register structure
// plus, for memory operations, its address-generation behaviour.
type Inst struct {
	isa.StaticInst
	Mem *MemSpec // non-nil iff Class.IsMem()
}

// Block is a basic block: a straight-line run of instructions, ending
// either in a branch (Branch != nil, and the last instruction's class
// is a branch class) or falling through to FallTarget.
type Block struct {
	ID          int
	Instrs      []Inst
	Branch      *BranchSpec
	TakenTarget int // successor when the branch is taken (or indirect default)
	FallTarget  int // successor when not taken / fallthrough
}

// Program is a complete synthetic benchmark: a CFG whose execution
// never terminates (the harness bounds runs by instruction count).
type Program struct {
	Name   string
	Blocks []*Block
	Entry  int

	starts []uint64 // per-block start PCs, filled by Layout
}

// Layout computes the code layout (per-block start PCs, contiguous from
// CodeBase in ID order). It is idempotent. Generate and Validate call
// it; callers constructing Programs by hand must call it (or Validate)
// before sharing the Program across goroutines, since PC reads the
// cached layout.
func (p *Program) Layout() {
	if p.starts != nil {
		return
	}
	starts := make([]uint64, len(p.Blocks))
	off := CodeBase
	for i, b := range p.Blocks {
		starts[i] = off
		off += uint64(len(b.Instrs)) * InstBytes
	}
	p.starts = starts
}

// PC returns the address of instruction idx of block id, assuming
// blocks are laid out contiguously from CodeBase in ID order.
func (p *Program) PC(blockID, idx int) uint64 {
	if p.starts == nil {
		p.Layout()
	}
	return p.starts[blockID] + uint64(idx)*InstBytes
}

// NumStaticInstrs returns the total static instruction count.
func (p *Program) NumStaticInstrs() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// CodeBytes returns the static code footprint in bytes.
func (p *Program) CodeBytes() uint64 {
	return uint64(p.NumStaticInstrs()) * InstBytes
}

// Validate checks structural invariants: every block is non-empty, all
// successor IDs are in range, terminating branches have branch-class
// last instructions, memory instructions have address generators, and
// every block is reachable from the entry.
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("program %q has no blocks", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Blocks) {
		return fmt.Errorf("program %q entry %d out of range", p.Name, p.Entry)
	}
	for i, b := range p.Blocks {
		if b.ID != i {
			return fmt.Errorf("block %d has ID %d", i, b.ID)
		}
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %d is empty", i)
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if err := in.StaticInst.Validate(); err != nil {
				return fmt.Errorf("block %d inst %d: %w", i, j, err)
			}
			if in.Class.IsMem() != (in.Mem != nil) {
				return fmt.Errorf("block %d inst %d: memory spec mismatch for class %v", i, j, in.Class)
			}
			if in.Class.IsBranch() && j != len(b.Instrs)-1 {
				return fmt.Errorf("block %d inst %d: branch not at block end", i, j)
			}
		}
		last := b.Instrs[len(b.Instrs)-1]
		if b.Branch != nil {
			if !last.Class.IsBranch() {
				return fmt.Errorf("block %d: Branch set but last inst is %v", i, last.Class)
			}
			if err := validateBranchSpec(b, len(p.Blocks)); err != nil {
				return fmt.Errorf("block %d: %w", i, err)
			}
		} else {
			if last.Class.IsBranch() {
				return fmt.Errorf("block %d: branch instruction without BranchSpec", i)
			}
			if b.FallTarget < 0 || b.FallTarget >= len(p.Blocks) {
				return fmt.Errorf("block %d: fall target %d out of range", i, b.FallTarget)
			}
		}
	}
	// Reachability from entry.
	seen := make([]bool, len(p.Blocks))
	stack := []int{p.Entry}
	seen[p.Entry] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range p.successors(id) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("block %d unreachable from entry", i)
		}
	}
	p.Layout()
	return nil
}

func validateBranchSpec(b *Block, numBlocks int) error {
	sp := b.Branch
	inRange := func(t int) bool { return t >= 0 && t < numBlocks }
	switch sp.Kind {
	case BranchLoop:
		if sp.Count < 1 {
			return fmt.Errorf("loop count %d < 1", sp.Count)
		}
		if !inRange(b.TakenTarget) || !inRange(b.FallTarget) {
			return fmt.Errorf("loop targets out of range")
		}
	case BranchBiased:
		if sp.P < 0 || sp.P > 1 {
			return fmt.Errorf("bias %v outside [0,1]", sp.P)
		}
		if !inRange(b.TakenTarget) || !inRange(b.FallTarget) {
			return fmt.Errorf("biased targets out of range")
		}
	case BranchPattern:
		if sp.PatternLen < 1 || sp.PatternLen > 64 {
			return fmt.Errorf("pattern length %d outside [1,64]", sp.PatternLen)
		}
		if !inRange(b.TakenTarget) || !inRange(b.FallTarget) {
			return fmt.Errorf("pattern targets out of range")
		}
	case BranchIndirect:
		if len(sp.Targets) == 0 {
			return fmt.Errorf("indirect branch with no targets")
		}
		for _, t := range sp.Targets {
			if !inRange(t) {
				return fmt.Errorf("indirect target %d out of range", t)
			}
		}
	default:
		return fmt.Errorf("unknown branch kind %d", sp.Kind)
	}
	return nil
}

// successors returns the possible next blocks of block id.
func (p *Program) successors(id int) []int {
	b := p.Blocks[id]
	if b.Branch == nil {
		return []int{b.FallTarget}
	}
	if b.Branch.Kind == BranchIndirect {
		return b.Branch.Targets
	}
	return []int{b.TakenTarget, b.FallTarget}
}
