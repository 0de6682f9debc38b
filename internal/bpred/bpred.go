// Package bpred implements the branch-prediction substrate: a hybrid
// predictor per the paper's Table 2 (an 8K-entry meta chooser selecting
// between an 8K-entry bimodal predictor and an 8K x 8K two-level local
// predictor that XORs local history with the branch PC) and a 512-entry
// 4-way BTB.
//
// It also provides the two branch-profiling disciplines compared in
// §2.1.3: immediate update (classic single-pass profiling) and delayed
// update (a FIFO the size of the instruction fetch queue, with lookup
// at FIFO entry, update at FIFO exit, and squash-and-replay on
// mispredictions — modelling speculative update at dispatch time).
package bpred

import (
	"fmt"

	"repro/internal/isa"
)

// Kind selects the direction-prediction organisation.
type Kind uint8

const (
	// KindHybrid is the paper's Table 2 predictor: a meta chooser
	// selecting between bimodal and two-level local components.
	KindHybrid Kind = iota
	// KindBimodal uses only the PC-indexed 2-bit counter table.
	KindBimodal
	// KindTwoLevelLocal uses only the local-history two-level component
	// (per-branch history XORed with the PC into the pattern table).
	KindTwoLevelLocal
	// KindGShare is a global-history predictor: the global branch
	// history register XORed with the PC indexes the pattern table.
	KindGShare
	// KindStaticTaken predicts every conditional branch taken.
	KindStaticTaken
	// KindStaticNotTaken predicts every conditional branch not-taken.
	KindStaticNotTaken
)

var kindNames = map[Kind]string{
	KindHybrid: "hybrid", KindBimodal: "bimodal", KindTwoLevelLocal: "2level",
	KindGShare: "gshare", KindStaticTaken: "taken", KindStaticNotTaken: "nottaken",
}

// String returns the kind's short name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "kind?"
}

// Config sizes the predictor. All table entry counts must be powers of
// two. The zero value is unusable; start from DefaultConfig.
type Config struct {
	Kind           Kind
	BimodalEntries int // 2-bit counters indexed by PC
	LocalHistories int // entries in the per-branch history table
	PHTEntries     int // 2-bit counters in the second-level pattern table
	MetaEntries    int // 2-bit chooser counters
	BTBEntries     int
	BTBAssoc       int
	// RASEntries is Table 2's return-address stack depth. No model
	// reads it: the abstract ISA folds calls and returns into the
	// indirect-branch class. It stays because every stored result and
	// journal is keyed by a fingerprint of the whole config.
	RASEntries int
}

// DefaultConfig returns the paper's Table 2 predictor: 8K-entry hybrid
// (8K bimodal + 8K x 8K two-level local with PC XOR), 512-entry 4-way
// BTB, 64-entry RAS.
func DefaultConfig() Config {
	return Config{
		BimodalEntries: 8 << 10,
		LocalHistories: 8 << 10,
		PHTEntries:     8 << 10,
		MetaEntries:    8 << 10,
		BTBEntries:     512,
		BTBAssoc:       4,
		RASEntries:     64,
	}
}

// Scale returns a copy with the direction-prediction tables scaled by
// 2^log2Factor (the BTB and RAS are left unchanged), as in the Table 4
// branch-predictor-size sweep.
func (c Config) Scale(log2Factor int) Config {
	s := func(n int) int {
		if log2Factor >= 0 {
			n <<= uint(log2Factor)
		} else {
			n >>= uint(-log2Factor)
		}
		if n < 4 {
			n = 4
		}
		return n
	}
	c.BimodalEntries = s(c.BimodalEntries)
	c.LocalHistories = s(c.LocalHistories)
	c.PHTEntries = s(c.PHTEntries)
	c.MetaEntries = s(c.MetaEntries)
	return c
}

// Validate checks the geometry.
func (c Config) Validate() error {
	pow2 := func(n int, what string) error {
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("bpred: %s = %d must be a positive power of two", what, n)
		}
		return nil
	}
	for _, f := range []struct {
		n    int
		what string
	}{
		{c.BimodalEntries, "BimodalEntries"},
		{c.LocalHistories, "LocalHistories"},
		{c.PHTEntries, "PHTEntries"},
		{c.MetaEntries, "MetaEntries"},
		{c.BTBEntries, "BTBEntries"},
	} {
		if err := pow2(f.n, f.what); err != nil {
			return err
		}
	}
	if c.BTBAssoc <= 0 || c.BTBEntries%c.BTBAssoc != 0 {
		return fmt.Errorf("bpred: BTB assoc %d incompatible with %d entries", c.BTBAssoc, c.BTBEntries)
	}
	if c.RASEntries < 0 {
		return fmt.Errorf("bpred: negative RAS size")
	}
	return nil
}

// Prediction is the outcome of a Lookup.
type Prediction struct {
	Taken        bool   // predicted direction (always true for indirect branches)
	BTBHit       bool   // the BTB supplied a target
	Target       uint64 // predicted target (valid when BTBHit)
	usedTwoLevel bool
}

// Predictor is the hybrid direction predictor plus BTB. It is not
// concurrency-safe; each simulator owns one instance.
type Predictor struct {
	cfg Config

	bimodal    []uint8 // 2-bit counters
	history    []uint16
	histBits   uint
	pht        []uint8
	meta       []uint8
	globalHist uint64 // gshare global history register

	btbTags  []uint64
	btbTgts  []uint64
	btbValid []bool
	btbLRU   []uint64
	btbSets  int
	btbTick  uint64

	Lookups uint64
	Updates uint64
}

// New builds a predictor; cfg must validate. Counters initialise to
// weakly-not-taken (1), the SimpleScalar convention.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	histBits := uint(0)
	for 1<<histBits < cfg.PHTEntries {
		histBits++
	}
	p := &Predictor{
		cfg:      cfg,
		bimodal:  make([]uint8, cfg.BimodalEntries),
		history:  make([]uint16, cfg.LocalHistories),
		histBits: histBits,
		pht:      make([]uint8, cfg.PHTEntries),
		meta:     make([]uint8, cfg.MetaEntries),
		btbTags:  make([]uint64, cfg.BTBEntries),
		btbTgts:  make([]uint64, cfg.BTBEntries),
		btbValid: make([]bool, cfg.BTBEntries),
		btbLRU:   make([]uint64, cfg.BTBEntries),
		btbSets:  cfg.BTBEntries / cfg.BTBAssoc,
	}
	for i := range p.bimodal {
		p.bimodal[i] = 1
	}
	for i := range p.pht {
		p.pht[i] = 1
	}
	for i := range p.meta {
		p.meta[i] = 2 // weakly prefer the two-level component
	}
	return p
}

// Config returns the predictor geometry.
func (p *Predictor) Config() Config { return p.cfg }

func pcIndex(pc uint64, n int) int {
	// Drop instruction alignment bits, as sim-bpred does.
	return int((pc >> 3) & uint64(n-1))
}

func (p *Predictor) twoLevelIndex(pc uint64) int {
	h := p.history[pcIndex(pc, p.cfg.LocalHistories)]
	// XOR the local history with the branch's PC (Table 2).
	return int((uint64(h) ^ (pc >> 3)) & uint64(p.cfg.PHTEntries-1))
}

func (p *Predictor) gshareIndex(pc uint64) int {
	return int((p.globalHist ^ (pc >> 3)) & uint64(p.cfg.PHTEntries-1))
}

// predictDirection returns the direction prediction of the configured
// organisation for a conditional branch at pc.
func (p *Predictor) predictDirection(pc uint64) (taken, usedTwoLevel bool) {
	switch p.cfg.Kind {
	case KindStaticTaken:
		return true, false
	case KindStaticNotTaken:
		return false, false
	case KindBimodal:
		return p.bimodal[pcIndex(pc, p.cfg.BimodalEntries)] >= 2, false
	case KindTwoLevelLocal:
		return p.pht[p.twoLevelIndex(pc)] >= 2, true
	case KindGShare:
		return p.pht[p.gshareIndex(pc)] >= 2, true
	default: // KindHybrid
		bim := p.bimodal[pcIndex(pc, p.cfg.BimodalEntries)] >= 2
		two := p.pht[p.twoLevelIndex(pc)] >= 2
		if p.meta[pcIndex(pc, p.cfg.MetaEntries)] >= 2 {
			return two, true
		}
		return bim, false
	}
}

// Lookup predicts the branch at pc. It does not modify predictor state
// other than statistics; direction state changes only on Update.
func (p *Predictor) Lookup(pc uint64, class isa.Class) Prediction {
	p.Lookups++
	var pr Prediction
	if class == isa.IndirBranch {
		pr.Taken = true
	} else {
		pr.Taken, pr.usedTwoLevel = p.predictDirection(pc)
	}
	pr.BTBHit, pr.Target = p.btbLookup(pc)
	return pr
}

// Update trains the predictor with the resolved outcome of the branch
// at pc. For the hybrid organisation both direction components train
// and the chooser trains toward whichever was correct (when they
// disagree). Taken branches allocate/refresh their BTB entry.
func (p *Predictor) Update(pc uint64, class isa.Class, taken bool, target uint64) {
	p.Updates++
	if class != isa.IndirBranch {
		switch p.cfg.Kind {
		case KindStaticTaken, KindStaticNotTaken:
			// Stateless.
		case KindBimodal:
			bi := pcIndex(pc, p.cfg.BimodalEntries)
			p.bimodal[bi] = bump(p.bimodal[bi], taken)
		case KindTwoLevelLocal:
			ti := p.twoLevelIndex(pc)
			p.pht[ti] = bump(p.pht[ti], taken)
			p.shiftLocalHistory(pc, taken)
		case KindGShare:
			gi := p.gshareIndex(pc)
			p.pht[gi] = bump(p.pht[gi], taken)
			p.globalHist <<= 1
			if taken {
				p.globalHist |= 1
			}
			p.globalHist &= uint64(p.cfg.PHTEntries - 1)
		default: // KindHybrid
			bi := pcIndex(pc, p.cfg.BimodalEntries)
			ti := p.twoLevelIndex(pc)
			bimCorrect := (p.bimodal[bi] >= 2) == taken
			twoCorrect := (p.pht[ti] >= 2) == taken
			p.bimodal[bi] = bump(p.bimodal[bi], taken)
			p.pht[ti] = bump(p.pht[ti], taken)
			if bimCorrect != twoCorrect {
				mi := pcIndex(pc, p.cfg.MetaEntries)
				p.meta[mi] = bump(p.meta[mi], twoCorrect)
			}
			p.shiftLocalHistory(pc, taken)
		}
	}
	if taken {
		p.btbInsert(pc, target)
	}
}

// shiftLocalHistory records the outcome in the branch's local history.
func (p *Predictor) shiftLocalHistory(pc uint64, taken bool) {
	hi := pcIndex(pc, p.cfg.LocalHistories)
	h := p.history[hi] << 1
	if taken {
		h |= 1
	}
	p.history[hi] = h & uint16((1<<p.histBits)-1)
}

// bump saturates a 2-bit counter toward taken/not-taken.
func bump(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

func (p *Predictor) btbLookup(pc uint64) (bool, uint64) {
	set := pcIndex(pc, p.btbSets)
	base := set * p.cfg.BTBAssoc
	for i := base; i < base+p.cfg.BTBAssoc; i++ {
		if p.btbValid[i] && p.btbTags[i] == pc {
			p.btbTick++
			p.btbLRU[i] = p.btbTick
			return true, p.btbTgts[i]
		}
	}
	return false, 0
}

func (p *Predictor) btbInsert(pc, target uint64) {
	set := pcIndex(pc, p.btbSets)
	base := set * p.cfg.BTBAssoc
	victim := base
	oldest := ^uint64(0)
	for i := base; i < base+p.cfg.BTBAssoc; i++ {
		if p.btbValid[i] && p.btbTags[i] == pc {
			p.btbTgts[i] = target
			p.btbTick++
			p.btbLRU[i] = p.btbTick
			return
		}
		if !p.btbValid[i] {
			victim = i
			oldest = 0
		} else if p.btbLRU[i] < oldest {
			victim = i
			oldest = p.btbLRU[i]
		}
	}
	p.btbTick++
	p.btbTags[victim] = pc
	p.btbTgts[victim] = target
	p.btbValid[victim] = true
	p.btbLRU[victim] = p.btbTick
}

// Outcome classifies a resolved branch against its prediction using the
// paper's three-way taxonomy (§2.1.2): correctly predicted, fetch
// redirection (correct direction but no/or wrong BTB target for a taken
// branch), or misprediction (wrong direction for conditionals; BTB
// miss or wrong target for indirect branches).
type Outcome struct {
	Taken         bool
	Mispredicted  bool
	FetchRedirect bool
}

// Classify derives the Outcome for a branch with resolved direction
// taken and resolved target, given its prediction.
func Classify(pr Prediction, class isa.Class, taken bool, target uint64) Outcome {
	o := Outcome{Taken: taken}
	if class == isa.IndirBranch {
		// Always taken; direction cannot mispredict, only the target.
		o.Mispredicted = !pr.BTBHit || pr.Target != target
		return o
	}
	if pr.Taken != taken {
		o.Mispredicted = true
		return o
	}
	if taken && (!pr.BTBHit || pr.Target != target) {
		o.FetchRedirect = true
	}
	return o
}
