package cpu

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
)

// randomStream builds a structurally valid but otherwise arbitrary
// instruction stream from fuzz input.
func randomStream(seed uint64, n int) []trace.DynInst {
	rng := stats.NewRNG(seed)
	out := make([]trace.DynInst, n)
	pc := uint64(0x400000)
	for i := range out {
		cls := isa.Class(rng.Intn(int(isa.NumClasses)))
		d := trace.DynInst{
			Seq:     uint64(i),
			PC:      pc,
			NextPC:  pc + 8,
			Class:   cls,
			BlockID: int32(rng.Intn(50)),
			Index:   int16(rng.Intn(8)),
		}
		if cls.IsMem() {
			d.EffAddr = uint64(rng.Intn(1 << 24))
		}
		if cls.IsBranch() {
			d.Taken = rng.Intn(2) == 0
			if rng.Intn(4) == 0 {
				d.Flags |= trace.FlagBrMispredict
			} else if rng.Intn(4) == 0 {
				d.Flags |= trace.FlagBrFetchRedirect
			}
			if d.Taken {
				d.NextPC = uint64(0x400000 + rng.Intn(1<<16)*8)
			}
		}
		if rng.Intn(3) == 0 {
			d.Flags |= trace.FlagL1IMiss
		}
		if cls == isa.Load && rng.Intn(3) == 0 {
			d.Flags |= trace.FlagL1DMiss | trace.FlagDTLBMiss
			if rng.Intn(2) == 0 {
				d.Flags |= trace.FlagL2DMiss
			}
		}
		nsrc := rng.Intn(isa.MaxSrcOperands + 1)
		d.NumSrcs = uint8(nsrc)
		for op := 0; op < nsrc; op++ {
			if rng.Intn(2) == 0 {
				d.DepDist[op] = uint32(rng.Intn(700))
			}
		}
		if cls.HasDest() && rng.Intn(2) == 0 {
			d.WAWDist = uint32(rng.Intn(700))
		}
		pc += 8
	}
	return out
}

// Property: any structurally valid stream commits completely, in both
// pipeline disciplines, under several window configurations, with
// cycles >= instructions/issue-width.
func TestPipelineFuzzCompletes(t *testing.T) {
	f := func(seed uint64, small bool, inorder bool) bool {
		n := 2000
		insts := randomStream(seed, n)
		cfg := DefaultConfig()
		cfg.PerfectCaches = false
		cfg.InOrder = inorder
		if small {
			cfg.RUUSize = 16
			cfg.LSQSize = 8
			cfg.IFQSize = 4
			cfg.DecodeWidth, cfg.IssueWidth, cfg.CommitWidth = 2, 2, 2
			cfg.FetchSpeed = 1
		}
		r := NewTraceDriven(cfg, trace.NewSliceSource(insts)).Run()
		if r.Instructions != uint64(n) {
			t.Logf("seed %d: committed %d of %d", seed, r.Instructions, n)
			return false
		}
		minCycles := uint64(n) / uint64(cfg.IssueWidth)
		return r.Cycles >= minCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: execution-driven mode completes on arbitrary streams too
// (live predictor + caches), and activity counters stay consistent.
func TestPipelineFuzzEDSConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1500
		insts := randomStream(seed, n)
		cfg := DefaultConfig()
		r := NewExecutionDriven(cfg, trace.NewSliceSource(insts)).Run()
		if r.Instructions != uint64(n) {
			return false
		}
		// Committed never exceeds dispatched, dispatched never exceeds
		// fetched.
		if r.Act.Committed > r.Act.Dispatched || r.Act.Dispatched > r.Act.Fetched {
			return false
		}
		// Every committed instruction was issued exactly once; wrong-path
		// issues can only add.
		return r.Act.Issued >= r.Act.Committed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
