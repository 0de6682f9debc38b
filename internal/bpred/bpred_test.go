package bpred

import (
	"testing"

	"repro/internal/isa"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.PHTEntries = 3000 // not a power of two
	if bad.Validate() == nil {
		t.Error("non-pow2 PHT accepted")
	}
	bad = DefaultConfig()
	bad.BTBAssoc = 3
	if bad.Validate() == nil {
		t.Error("BTB assoc not dividing entries accepted")
	}
}

func TestConfigScale(t *testing.T) {
	up := DefaultConfig().Scale(2)
	if up.BimodalEntries != 32<<10 || up.PHTEntries != 32<<10 {
		t.Errorf("Scale(2): %+v", up)
	}
	if up.BTBEntries != 512 {
		t.Error("Scale must not touch the BTB")
	}
	down := DefaultConfig().Scale(-2)
	if down.BimodalEntries != 2<<10 {
		t.Errorf("Scale(-2): %+v", down)
	}
	if err := down.Validate(); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400100)
	tgt := uint64(0x400200)
	// Train heavily taken.
	for i := 0; i < 10; i++ {
		p.Update(pc, isa.IntBranch, true, tgt)
	}
	pr := p.Lookup(pc, isa.IntBranch)
	if !pr.Taken {
		t.Error("heavily-taken branch predicted not-taken")
	}
	if !pr.BTBHit || pr.Target != tgt {
		t.Errorf("BTB should supply target: %+v", pr)
	}
}

func TestTwoLevelLearnsPattern(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400300)
	tgt := uint64(0x400800)
	// Period-3 pattern T T N: bimodal can never get the N right, the
	// local predictor learns it exactly.
	pattern := []bool{true, true, false}
	correct := 0
	total := 0
	for i := 0; i < 300; i++ {
		taken := pattern[i%3]
		pr := p.Lookup(pc, isa.IntBranch)
		if i >= 150 { // after warmup
			total++
			if pr.Taken == taken {
				correct++
			}
		}
		p.Update(pc, isa.IntBranch, taken, tgt)
	}
	if acc := float64(correct) / float64(total); acc < 0.98 {
		t.Errorf("pattern accuracy %.3f after warmup, want ~1.0", acc)
	}
}

func TestLoopExitPredictedByLocalHistory(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400400)
	tgt := uint64(0x400000)
	// A loop branch with trip count 8: taken 7x, not-taken once.
	misses := 0
	total := 0
	for rep := 0; rep < 100; rep++ {
		for i := 0; i < 8; i++ {
			taken := i < 7
			pr := p.Lookup(pc, isa.IntBranch)
			if rep >= 50 {
				total++
				if pr.Taken != taken {
					misses++
				}
			}
			p.Update(pc, isa.IntBranch, taken, tgt)
		}
	}
	if rate := float64(misses) / float64(total); rate > 0.02 {
		t.Errorf("trained loop mispredict rate %.3f, want near 0 (local history covers period 8)", rate)
	}
}

func TestIndirectBranchClassification(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400500)
	// First sighting: BTB miss => misprediction.
	pr := p.Lookup(pc, isa.IndirBranch)
	o := Classify(pr, isa.IndirBranch, true, 0x400900)
	if !o.Mispredicted {
		t.Error("BTB-missing indirect branch must be a misprediction")
	}
	p.Update(pc, isa.IndirBranch, true, 0x400900)
	// Same target: correct now.
	pr = p.Lookup(pc, isa.IndirBranch)
	o = Classify(pr, isa.IndirBranch, true, 0x400900)
	if o.Mispredicted || o.FetchRedirect {
		t.Errorf("stable indirect target misclassified: %+v", o)
	}
	// Changed target: misprediction again.
	o = Classify(pr, isa.IndirBranch, true, 0x400a00)
	if !o.Mispredicted {
		t.Error("indirect target change must mispredict")
	}
}

func TestFetchRedirectClassification(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400600)
	tgt := uint64(0x401000)
	// Train direction taken without BTB being warm for this PC.
	for i := 0; i < 4; i++ {
		// Direction tables train via Update, which also fills the BTB —
		// so use a classification from a fresh prediction *before* the
		// first update to get direction-correct + BTB-miss.
		pr := p.Lookup(pc, isa.IntBranch)
		o := Classify(pr, isa.IntBranch, pr.Taken, tgt)
		if pr.Taken && !pr.BTBHit {
			if !o.FetchRedirect || o.Mispredicted {
				t.Errorf("taken + correct direction + BTB miss should be a fetch redirection: %+v", o)
			}
		}
		p.Update(pc, isa.IntBranch, true, tgt)
	}
	// Now direction taken and BTB warm: fully correct.
	pr := p.Lookup(pc, isa.IntBranch)
	o := Classify(pr, isa.IntBranch, true, tgt)
	if o.Mispredicted || o.FetchRedirect {
		t.Errorf("warm branch misclassified: %+v", o)
	}
	// Not-taken correct predictions never redirect, even on BTB miss.
	o = Classify(Prediction{Taken: false}, isa.IntBranch, false, 0)
	if o.Mispredicted || o.FetchRedirect {
		t.Errorf("correct not-taken should be clean: %+v", o)
	}
}

func TestBTBCapacityEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBEntries = 8
	cfg.BTBAssoc = 2
	p := New(cfg)
	// Fill one set (PCs spaced to map to the same set: set index uses
	// pc>>3 & (sets-1), sets=4 → stride 4*8=32).
	p.Update(0x1000, isa.IntBranch, true, 0xa)
	p.Update(0x1020, isa.IntBranch, true, 0xb)
	p.Update(0x1040, isa.IntBranch, true, 0xc) // evicts 0x1000
	if hit, _ := p.btbLookup(0x1000); hit {
		t.Error("LRU BTB entry should have been evicted")
	}
	if hit, tgt := p.btbLookup(0x1040); !hit || tgt != 0xc {
		t.Error("newly inserted BTB entry missing")
	}
}

func TestImmediateVsDelayedMispredictRates(t *testing.T) {
	// The defining property of §2.1.3: with updates delayed by a FIFO,
	// prediction accuracy drops relative to immediate update, because
	// lookups see stale state. Drive both with an identical stream of
	// short-period patterned branches (highly sensitive to staleness).
	type result struct{ branches, miss int }
	run := func(mk func(p *Predictor, emit func(uint64, Outcome)) BranchProfiler) result {
		p := New(DefaultConfig())
		var res result
		prof := mk(p, func(_ uint64, o Outcome) {
			res.branches++
			if o.Mispredicted {
				res.miss++
			}
		})
		// A tight loop: branch executed 4x back-to-back (T T T N) with
		// two fillers between iterations. With a 32-entry FIFO all four
		// iterations are in flight together, so delayed lookups all see
		// the same pre-loop history and cannot locate the exit; with
		// immediate update the local history tracks the iteration
		// position exactly.
		for rep := 0; rep < 10000; rep++ {
			for i := 0; i < 4; i++ {
				prof.Feed(0x4000, isa.IntBranch, i < 3, 0x9000, 0)
				prof.Feed(0x100, isa.IntALU, false, 0, 0)
				prof.Feed(0x108, isa.IntALU, false, 0, 0)
			}
		}
		prof.Flush()
		return res
	}
	imm := run(func(p *Predictor, emit func(uint64, Outcome)) BranchProfiler {
		return &ImmediateProfiler{Pred: p, Emit: emit}
	})
	del := run(func(p *Predictor, emit func(uint64, Outcome)) BranchProfiler {
		return NewDelayedProfiler(p, 32, emit)
	})
	if imm.branches != del.branches {
		t.Fatalf("branch counts differ: %d vs %d", imm.branches, del.branches)
	}
	immRate := float64(imm.miss) / float64(imm.branches)
	delRate := float64(del.miss) / float64(del.branches)
	if delRate <= immRate {
		t.Errorf("delayed update rate %.4f should exceed immediate %.4f on staleness-sensitive stream", delRate, immRate)
	}
}

func TestDelayedProfilerEmitsEveryBranchOnce(t *testing.T) {
	p := New(DefaultConfig())
	got := map[uint64]int{}
	dp := NewDelayedProfiler(p, 8, func(tag uint64, _ Outcome) { got[tag]++ })
	for i := uint64(0); i < 100; i++ {
		cls := isa.IntALU
		if i%3 == 0 {
			cls = isa.IntBranch
		}
		dp.Feed(0x4000+i*8, cls, i%2 == 0, 0x8000, i)
	}
	dp.Flush()
	for i := uint64(0); i < 100; i++ {
		want := 0
		if i%3 == 0 {
			want = 1
		}
		if got[i] != want {
			t.Fatalf("tag %d emitted %d times, want %d", i, got[i], want)
		}
	}
}

func TestDelayedProfilerFlushEmpty(t *testing.T) {
	dp := NewDelayedProfiler(New(DefaultConfig()), 4, nil)
	dp.Flush() // must not panic on empty FIFO
}

func TestPredictorScalingImprovesAliasedAccuracy(t *testing.T) {
	// Many branches with conflicting biases alias in a tiny predictor
	// but not in a large one.
	run := func(cfg Config) float64 {
		p := New(cfg)
		miss, total := 0, 0
		for i := 0; i < 60000; i++ {
			b := i % 600
			pc := uint64(0x4000 + b*8)
			taken := b%3 == 0 // conflicting biases among aliasing partners
			pr := p.Lookup(pc, isa.IntBranch)
			if i > 30000 {
				total++
				if pr.Taken != taken {
					miss++
				}
			}
			p.Update(pc, isa.IntBranch, taken, 0x8000)
		}
		return float64(miss) / float64(total)
	}
	tiny := DefaultConfig().Scale(-9) // 16-entry tables
	big := DefaultConfig()
	if rTiny, rBig := run(tiny), run(big); rBig >= rTiny {
		t.Errorf("scaling up should reduce mispredicts: tiny=%.4f big=%.4f", rTiny, rBig)
	}
}
