package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// mkStream builds a simple DynInst stream. Each spec yields one
// instruction; Seq/PC/NextPC are filled automatically.
type instSpec struct {
	class isa.Class
	dep   uint32 // distance of operand 0 (0 = none)
	flags trace.Flags
	taken bool
}

func mkStream(specs []instSpec) []trace.DynInst {
	out := make([]trace.DynInst, len(specs))
	pc := uint64(program.CodeBase)
	for i, s := range specs {
		out[i] = trace.DynInst{
			Seq:     uint64(i),
			PC:      pc,
			NextPC:  pc + 8,
			Class:   s.class,
			Taken:   s.taken,
			Flags:   s.flags,
			BlockID: -1,
		}
		if s.dep > 0 {
			out[i].NumSrcs = 1
			out[i].DepDist[0] = s.dep
		}
		if s.class.IsMem() {
			out[i].EffAddr = 0x1000_0000 + uint64(i)*8
		}
		pc += 8
	}
	return out
}

// idealCfg: perfect caches + perfect branch prediction, generous window.
func idealCfg() Config {
	cfg := DefaultConfig()
	cfg.PerfectCaches = true
	cfg.PerfectBpred = true
	return cfg
}

func runTrace(t *testing.T, cfg Config, insts []trace.DynInst) Result {
	t.Helper()
	return NewTraceDriven(cfg, trace.NewSliceSource(insts)).Run()
}

func TestIndependentALUReachesWidth(t *testing.T) {
	specs := make([]instSpec, 10000)
	for i := range specs {
		specs[i] = instSpec{class: isa.IntALU}
	}
	r := runTrace(t, idealCfg(), mkStream(specs))
	if r.Instructions != 10000 {
		t.Fatalf("committed %d, want 10000", r.Instructions)
	}
	if ipc := r.IPC(); ipc < 7.0 {
		t.Errorf("independent ALU IPC = %.2f, want near 8 (issue width)", ipc)
	}
}

func TestDependentChainSerialises(t *testing.T) {
	specs := make([]instSpec, 5000)
	for i := range specs {
		specs[i] = instSpec{class: isa.IntALU, dep: 1}
	}
	r := runTrace(t, idealCfg(), mkStream(specs))
	if ipc := r.IPC(); ipc > 1.1 || ipc < 0.8 {
		t.Errorf("serial chain IPC = %.2f, want ~1 (unit latency chain)", ipc)
	}
}

func TestDependentMulChain(t *testing.T) {
	specs := make([]instSpec, 3000)
	for i := range specs {
		specs[i] = instSpec{class: isa.IntMul, dep: 1}
	}
	r := runTrace(t, idealCfg(), mkStream(specs))
	want := 1.0 / float64(isa.IntMul.Latency())
	if ipc := r.IPC(); ipc > want*1.15 || ipc < want*0.8 {
		t.Errorf("mul chain IPC = %.3f, want ~%.3f", ipc, want)
	}
}

func TestNonPipelinedDivThroughput(t *testing.T) {
	// Independent divides: throughput limited by 2 non-pipelined units
	// with latency 20 => IPC ~ 2/20 = 0.1.
	specs := make([]instSpec, 2000)
	for i := range specs {
		specs[i] = instSpec{class: isa.IntDiv}
	}
	r := runTrace(t, idealCfg(), mkStream(specs))
	if ipc := r.IPC(); ipc > 0.12 || ipc < 0.08 {
		t.Errorf("div throughput IPC = %.3f, want ~0.1", ipc)
	}
}

func TestLoadMissLatencyHurts(t *testing.T) {
	mk := func(fl trace.Flags) []trace.DynInst {
		specs := make([]instSpec, 4000)
		for i := range specs {
			if i%4 == 0 {
				specs[i] = instSpec{class: isa.Load, flags: fl}
			} else {
				specs[i] = instSpec{class: isa.IntALU, dep: 1}
			}
		}
		return mkStream(specs)
	}
	cfg := DefaultConfig()
	cfg.PerfectBpred = true
	hit := runTrace(t, cfg, mk(0))
	miss := runTrace(t, cfg, mk(trace.FlagL1DMiss|trace.FlagL2DMiss))
	if hit.IPC() <= miss.IPC() {
		t.Errorf("L2-missing loads should hurt: hit %.3f vs miss %.3f", hit.IPC(), miss.IPC())
	}
	if miss.Cache.L1DMisses == 0 || miss.Cache.L2DMisses == 0 {
		t.Error("miss flags not counted")
	}
}

func TestMispredictPenalty(t *testing.T) {
	mk := func(fl trace.Flags) []trace.DynInst {
		specs := make([]instSpec, 6000)
		for i := range specs {
			if i%6 == 5 {
				specs[i] = instSpec{class: isa.IntBranch, flags: fl, taken: false}
			} else {
				specs[i] = instSpec{class: isa.IntALU}
			}
		}
		return mkStream(specs)
	}
	cfg := DefaultConfig()
	cfg.PerfectCaches = true
	good := runTrace(t, cfg, mk(0))
	bad := runTrace(t, cfg, mk(trace.FlagBrMispredict))
	if bad.IPC() >= good.IPC()/2 {
		t.Errorf("every-branch-mispredicted IPC %.3f should be far below clean %.3f", bad.IPC(), good.IPC())
	}
	if bad.Branch.Mispredicted != 1000 {
		t.Errorf("mispredicts = %d, want 1000", bad.Branch.Mispredicted)
	}
	// Wrong-path fill: more instructions fetched than committed.
	if bad.Act.Fetched <= bad.Instructions {
		t.Errorf("wrong-path fetches missing: fetched %d, committed %d", bad.Act.Fetched, bad.Instructions)
	}
	if good.Act.Fetched != good.Instructions {
		t.Errorf("clean run should fetch exactly the committed stream: %d vs %d", good.Act.Fetched, good.Instructions)
	}
}

func TestFetchRedirectCheaperThanMispredict(t *testing.T) {
	mk := func(fl trace.Flags) []trace.DynInst {
		specs := make([]instSpec, 6000)
		for i := range specs {
			if i%6 == 5 {
				specs[i] = instSpec{class: isa.IntBranch, flags: fl, taken: true}
			} else {
				specs[i] = instSpec{class: isa.IntALU}
			}
		}
		return mkStream(specs)
	}
	cfg := DefaultConfig()
	cfg.PerfectCaches = true
	redirect := runTrace(t, cfg, mk(trace.FlagBrFetchRedirect))
	mispredict := runTrace(t, cfg, mk(trace.FlagBrMispredict))
	clean := runTrace(t, cfg, mk(0))
	if !(mispredict.IPC() < redirect.IPC() && redirect.IPC() < clean.IPC()) {
		t.Errorf("want mispredict (%.3f) < redirect (%.3f) < clean (%.3f)",
			mispredict.IPC(), redirect.IPC(), clean.IPC())
	}
	if redirect.Branch.FetchRedirect != 1000 {
		t.Errorf("redirects = %d, want 1000", redirect.Branch.FetchRedirect)
	}
}

func TestICacheMissStallsFetch(t *testing.T) {
	mk := func(fl trace.Flags) []trace.DynInst {
		specs := make([]instSpec, 4000)
		for i := range specs {
			f := trace.Flags(0)
			if i%32 == 0 {
				f = fl
			}
			specs[i] = instSpec{class: isa.IntALU, flags: f}
		}
		return mkStream(specs)
	}
	cfg := DefaultConfig()
	cfg.PerfectBpred = true
	clean := runTrace(t, cfg, mk(0))
	missy := runTrace(t, cfg, mk(trace.FlagL1IMiss))
	if missy.IPC() >= clean.IPC() {
		t.Errorf("I-cache misses should slow fetch: %.3f vs %.3f", missy.IPC(), clean.IPC())
	}
	if missy.Cache.L1IMisses == 0 {
		t.Error("I-miss flags not counted")
	}
}

func TestSmallRUULimitsILP(t *testing.T) {
	// Loads with long latency + independent ALU work: a big window hides
	// the latency, a tiny window cannot.
	specs := make([]instSpec, 8000)
	for i := range specs {
		if i%8 == 0 {
			specs[i] = instSpec{class: isa.Load, flags: trace.FlagL1DMiss | trace.FlagL2DMiss}
		} else {
			specs[i] = instSpec{class: isa.IntALU}
		}
	}
	big := DefaultConfig()
	big.PerfectBpred = true
	small := big
	small.RUUSize = 8
	small.LSQSize = 4
	rBig := runTrace(t, big, mkStream(specs))
	rSmall := runTrace(t, small, mkStream(specs))
	if rSmall.IPC() >= rBig.IPC()*0.7 {
		t.Errorf("window 8 IPC %.3f should trail window 128 IPC %.3f", rSmall.IPC(), rBig.IPC())
	}
	if rBig.AvgRUUOcc <= rSmall.AvgRUUOcc {
		t.Errorf("bigger window should hold more in flight: %.1f vs %.1f", rBig.AvgRUUOcc, rSmall.AvgRUUOcc)
	}
}

func TestOccupanciesBounded(t *testing.T) {
	specs := make([]instSpec, 5000)
	for i := range specs {
		specs[i] = instSpec{class: isa.Load, flags: trace.FlagL1DMiss}
	}
	cfg := DefaultConfig()
	cfg.PerfectBpred = true
	r := runTrace(t, cfg, mkStream(specs))
	if r.AvgRUUOcc > float64(cfg.RUUSize) || r.AvgLSQOcc > float64(cfg.LSQSize) ||
		r.AvgIFQOcc > float64(cfg.IFQSize) {
		t.Errorf("occupancies exceed capacities: RUU %.1f LSQ %.1f IFQ %.1f",
			r.AvgRUUOcc, r.AvgLSQOcc, r.AvgIFQOcc)
	}
	if r.AvgLSQOcc == 0 {
		t.Error("LSQ occupancy should be non-zero for a load-only stream")
	}
}

func TestExecutionDrivenOnBenchmark(t *testing.T) {
	prog := program.MustGenerate(program.Personality{Name: "t", Seed: 42, TargetBlocks: 120})
	src := &trace.LimitSource{Src: program.NewExecutor(prog, 7), N: 150_000}
	r := NewExecutionDriven(DefaultConfig(), src).Run()
	if r.Instructions != 150_000 {
		t.Fatalf("committed %d, want 150000", r.Instructions)
	}
	if ipc := r.IPC(); ipc < 0.2 || ipc > 8 {
		t.Errorf("EDS IPC %.3f implausible", ipc)
	}
	if r.Branch.Branches == 0 || r.Cache.DAccesses == 0 {
		t.Error("missing branch/cache statistics")
	}
	if r.Branch.Mispredicted == 0 {
		t.Error("a real predictor should mispredict at least once")
	}
	if r.Cache.L1DMisses == 0 {
		t.Error("a real cache should miss at least once")
	}
}

func TestEDSDeterminism(t *testing.T) {
	prog := program.MustGenerate(program.Personality{Name: "t", Seed: 1, TargetBlocks: 60})
	run := func() Result {
		src := &trace.LimitSource{Src: program.NewExecutor(prog, 3), N: 40_000}
		return NewExecutionDriven(DefaultConfig(), src).Run()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("EDS is not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestPerfectModesMatchAcrossFrontEnds(t *testing.T) {
	// With perfect caches and perfect prediction, the execution-driven
	// and trace-driven pipelines must agree cycle-for-cycle on the same
	// stream: the only differences between the modes are locality
	// events, which perfection removes.
	prog := program.MustGenerate(program.Personality{Name: "t", Seed: 9, TargetBlocks: 80})
	insts := program.NewExecutor(prog, 2).Run(30_000)
	cfg := idealCfg()
	eds := NewExecutionDriven(cfg, trace.NewSliceSource(insts)).Run()
	syn := NewTraceDriven(cfg, trace.NewSliceSource(insts)).Run()
	if eds.Cycles != syn.Cycles || eds.Instructions != syn.Instructions {
		t.Errorf("perfect-mode mismatch: EDS %d cycles, trace %d cycles", eds.Cycles, syn.Cycles)
	}
}

func TestPipelineDrainsShortStreams(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 31} {
		specs := make([]instSpec, n)
		for i := range specs {
			specs[i] = instSpec{class: isa.IntALU, dep: 1}
		}
		r := runTrace(t, idealCfg(), mkStream(specs))
		if r.Instructions != uint64(n) {
			t.Errorf("n=%d: committed %d", n, r.Instructions)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.RUUSize = 0
	if bad.Validate() == nil {
		t.Error("zero RUU accepted")
	}
	bad = DefaultConfig()
	bad.LSQSize = bad.RUUSize * 2
	if bad.Validate() == nil {
		t.Error("LSQ > RUU accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestCommitWidthCapsIPC(t *testing.T) {
	specs := make([]instSpec, 8000)
	for i := range specs {
		specs[i] = instSpec{class: isa.IntALU}
	}
	cfg := idealCfg()
	cfg.CommitWidth = 2
	r := runTrace(t, cfg, mkStream(specs))
	if r.IPC() > 2.05 {
		t.Errorf("commit width 2 should cap IPC at 2, got %.2f", r.IPC())
	}
	cfg.CommitWidth = 8
	cfg.DecodeWidth = 2
	r = runTrace(t, cfg, mkStream(specs))
	if r.IPC() > 2.05 {
		t.Errorf("decode width 2 should cap IPC at 2, got %.2f", r.IPC())
	}
}

func TestMemPortContention(t *testing.T) {
	// Independent loads are throughput-limited by the load/store ports.
	specs := make([]instSpec, 8000)
	for i := range specs {
		specs[i] = instSpec{class: isa.Load}
	}
	cfg := idealCfg()
	cfg.LoadStore = 2
	two := runTrace(t, cfg, mkStream(specs))
	cfg.LoadStore = 4
	four := runTrace(t, cfg, mkStream(specs))
	if two.IPC() > 2.1 {
		t.Errorf("2 ports should cap load IPC at ~2, got %.2f", two.IPC())
	}
	if four.IPC() <= two.IPC() {
		t.Errorf("4 ports (%.2f) should beat 2 ports (%.2f)", four.IPC(), two.IPC())
	}
}

func TestFPUnitContention(t *testing.T) {
	specs := make([]instSpec, 4000)
	for i := range specs {
		specs[i] = instSpec{class: isa.FPALU}
	}
	cfg := idealCfg()
	r := runTrace(t, cfg, mkStream(specs))
	// 2 FP adders, pipelined: throughput caps at 2/cycle.
	if r.IPC() > 2.1 {
		t.Errorf("FP adder throughput should cap at 2, got %.2f", r.IPC())
	}
}

func TestWarmupResetsStats(t *testing.T) {
	specs := make([]instSpec, 5000)
	for i := range specs {
		specs[i] = instSpec{class: isa.IntALU}
	}
	cfg := idealCfg()
	cfg.WarmupInsts = 2000
	r := runTrace(t, cfg, mkStream(specs))
	if r.Instructions != 3000 {
		t.Errorf("warmup should exclude 2000 insts: counted %d", r.Instructions)
	}
	if r.Cycles == 0 || r.IPC() < 6 {
		t.Errorf("post-warmup stats broken: %d cycles, IPC %.2f", r.Cycles, r.IPC())
	}
}

func TestDepBeyondWindowIsReady(t *testing.T) {
	// A dependency distance far larger than the RUU can never stall.
	specs := make([]instSpec, 3000)
	for i := range specs {
		specs[i] = instSpec{class: isa.IntALU, dep: 600}
	}
	r := runTrace(t, idealCfg(), mkStream(specs))
	if ipc := r.IPC(); ipc < 7.0 {
		t.Errorf("beyond-window deps should not serialise: IPC %.2f", ipc)
	}
}

// TestDepTableCoversHugeRUU: a wrong path longer than 4096 entries must
// not evict the dependency record of an older producer that is still
// executing. Two chains of L2-missing loads head the stream; the second
// feeds a mispredicted branch, so the window fills with wrong-path
// filler while the first chain is still in flight. After recovery, a
// load that depends on the first chain's last load must wait for it —
// so a larger RUU cannot finish sooner, whatever it holds on the wrong
// path.
func TestDepTableCoversHugeRUU(t *testing.T) {
	miss := trace.FlagL1DMiss | trace.FlagL2DMiss | trace.FlagDTLBMiss
	specs := []instSpec{
		{class: isa.Load, flags: miss}, // first chain: positions 0..4
		{class: isa.Load, flags: miss, dep: 1},
		{class: isa.Load, flags: miss, dep: 1},
		{class: isa.Load, flags: miss, dep: 1},
		{class: isa.Load, flags: miss, dep: 1},
		{class: isa.Load, flags: miss}, // second chain: positions 5..7
		{class: isa.Load, flags: miss, dep: 1},
		{class: isa.Load, flags: miss, dep: 1},
		{class: isa.IntBranch, dep: 1, flags: trace.FlagBrMispredict},
		{class: isa.Load, flags: miss, dep: 5}, // consumer of position 4
	}
	for len(specs) < 12_000 {
		specs = append(specs, instSpec{class: isa.IntALU})
	}
	insts := mkStream(specs)
	cycles := func(ruu int) uint64 {
		cfg := DefaultConfig()
		cfg.RUUSize = ruu
		return runTrace(t, cfg, insts).Cycles
	}
	small, large := cycles(4096), cycles(8192)
	if large != small {
		t.Errorf("RUU 8192 took %d cycles, RUU 4096 %d: the consumer issued before its producer completed", large, small)
	}
	t.Logf("RUU 4096: %d cycles, RUU 8192: %d cycles", small, large)
}

// TestFlagMissFollowsFlagLayout pins the bit layout the flag-to-miss-
// index conversion relies on.
func TestFlagMissFollowsFlagLayout(t *testing.T) {
	for m := range missCombos {
		l1, l2, tlb := m&missL1 != 0, m&missL2 != 0, m&missTLB != 0
		var fi, fd trace.Flags
		if l1 {
			fi, fd = fi|trace.FlagL1IMiss, fd|trace.FlagL1DMiss
		}
		if l2 {
			fi, fd = fi|trace.FlagL2IMiss, fd|trace.FlagL2DMiss
		}
		if tlb {
			fi, fd = fi|trace.FlagITLBMiss, fd|trace.FlagDTLBMiss
		}
		other := trace.FlagBrMispredict | trace.FlagBrFetchRedirect
		if got, want := iFlagMiss(fi|fd|other), missIndex(l1, l2, tlb); got != want {
			t.Errorf("I-side flags %#x: miss index %d, want %d", fi, got, want)
		}
		if got, want := dFlagMiss(fi|fd|other), missIndex(l1, l2, tlb); got != want {
			t.Errorf("D-side flags %#x: miss index %d, want %d", fd, got, want)
		}
	}
}
