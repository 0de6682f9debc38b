package bpred

import (
	"testing"

	"repro/internal/isa"
)

func cfgOfKind(k Kind) Config {
	c := DefaultConfig()
	c.Kind = k
	return c
}

func TestStaticPredictors(t *testing.T) {
	taken := New(cfgOfKind(KindStaticTaken))
	notTaken := New(cfgOfKind(KindStaticNotTaken))
	for i := 0; i < 50; i++ {
		pc := uint64(0x4000 + i*8)
		if !taken.Lookup(pc, isa.IntBranch).Taken {
			t.Fatal("static-taken predicted not-taken")
		}
		if notTaken.Lookup(pc, isa.IntBranch).Taken {
			t.Fatal("static-not-taken predicted taken")
		}
		taken.Update(pc, isa.IntBranch, i%2 == 0, 0x8000)
		notTaken.Update(pc, isa.IntBranch, i%2 == 0, 0x8000)
	}
}

// correlatedStream: branch B's direction equals branch A's previous
// direction — invisible to bimodal and local history (A and B are
// different PCs), captured exactly by a global-history predictor.
func runCorrelated(p *Predictor, n int) (miss, total int) {
	pcA, pcB := uint64(0x4000), uint64(0x4100)
	prevA := false
	for i := 0; i < n; i++ {
		dirA := i%3 == 0 // some pattern for A
		// A
		p.Lookup(pcA, isa.IntBranch)
		p.Update(pcA, isa.IntBranch, dirA, 0x9000)
		// B follows A's previous outcome.
		dirB := prevA
		pr := p.Lookup(pcB, isa.IntBranch)
		if i > n/2 {
			total++
			if pr.Taken != dirB {
				miss++
			}
		}
		p.Update(pcB, isa.IntBranch, dirB, 0x9100)
		prevA = dirA
	}
	return miss, total
}

func TestGShareCapturesGlobalCorrelation(t *testing.T) {
	gshare := New(cfgOfKind(KindGShare))
	bimodal := New(cfgOfKind(KindBimodal))
	gm, gt := runCorrelated(gshare, 3000)
	bm, bt := runCorrelated(bimodal, 3000)
	gRate := float64(gm) / float64(gt)
	bRate := float64(bm) / float64(bt)
	if gRate > 0.05 {
		t.Errorf("gshare mispredict rate %.3f on correlated stream, want ~0", gRate)
	}
	if bRate < 0.2 {
		t.Errorf("bimodal rate %.3f suspiciously good on correlated stream", bRate)
	}
}

func TestBimodalBeatsStaticOnBiased(t *testing.T) {
	run := func(k Kind) float64 {
		p := New(cfgOfKind(k))
		miss, total := 0, 0
		for i := 0; i < 2000; i++ {
			pc := uint64(0x4000 + (i%8)*8)
			taken := i%8 < 2 // mostly not-taken branches
			pr := p.Lookup(pc, isa.IntBranch)
			if i > 1000 {
				total++
				if pr.Taken != taken {
					miss++
				}
			}
			p.Update(pc, isa.IntBranch, taken, 0x9000)
		}
		return float64(miss) / float64(total)
	}
	if bi, st := run(KindBimodal), run(KindStaticTaken); bi >= st {
		t.Errorf("bimodal (%.3f) should beat static-taken (%.3f) on biased branches", bi, st)
	}
}

func TestTwoLevelLocalAlone(t *testing.T) {
	p := New(cfgOfKind(KindTwoLevelLocal))
	pc := uint64(0x4000)
	pattern := []bool{true, false, false, true, false}
	miss, total := 0, 0
	for i := 0; i < 2000; i++ {
		taken := pattern[i%len(pattern)]
		pr := p.Lookup(pc, isa.IntBranch)
		if i > 1000 {
			total++
			if pr.Taken != taken {
				miss++
			}
		}
		p.Update(pc, isa.IntBranch, taken, 0x9000)
	}
	if rate := float64(miss) / float64(total); rate > 0.02 {
		t.Errorf("local predictor rate %.3f on periodic pattern, want ~0", rate)
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]Kind{}
	for _, k := range []Kind{KindHybrid, KindBimodal, KindTwoLevelLocal, KindGShare, KindStaticTaken, KindStaticNotTaken} {
		name := k.String()
		if name == "kind?" {
			t.Fatalf("kind %d has no name", k)
		}
		if other, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", other, k, name)
		}
		seen[name] = k
	}
	if Kind(99).String() != "kind?" {
		t.Error("unknown kind should stringify to kind?")
	}
}

func TestHybridDefaultKind(t *testing.T) {
	// The zero Kind must remain the paper's hybrid so existing configs
	// are unaffected.
	if DefaultConfig().Kind != KindHybrid {
		t.Fatal("default kind changed")
	}
}
