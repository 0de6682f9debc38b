package statsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/surrogate"
	"repro/internal/trace"
)

// benchScale keeps one harness iteration affordable; cmd/paperexp runs
// the same experiments at full PaperScale.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.RefInstructions = 100_000
	s.SynthTarget = 20_000
	s.Seeds = 3
	s.Benchmarks = []string{"gzip", "vpr"}
	return s
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(name, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if res.Render() == "" {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (benchmarks + baseline IPC).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig3 regenerates Fig. 3 (mispredictions per 1k instructions
// under EDS / immediate / delayed update).
func BenchmarkFig3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Fig. 4 and Table 3 (SFG order sweep).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Fig. 5 (immediate vs delayed profiling).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkCoV regenerates the §4.1 convergence study.
func BenchmarkCoV(b *testing.B) { runExperiment(b, "cov") }

// BenchmarkFig6 regenerates Fig. 6 (absolute IPC/EPC accuracy).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Fig. 7 (HLS vs SMART-HLS).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Fig. 8 (phase modeling vs SimPoint) at a
// reduced unit count.
func BenchmarkFig8(b *testing.B) {
	s := benchScale()
	s.RefInstructions = 50_000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(s, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the Table 4 relative-accuracy sweeps for
// one benchmark.
func BenchmarkTable4(b *testing.B) {
	s := benchScale()
	s.Benchmarks = []string{"gzip"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSE regenerates the §4.6 design-space exploration on the
// reduced grid.
func BenchmarkDSE(b *testing.B) {
	s := benchScale()
	s.Benchmarks = []string{"gzip"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DSE(s, experiments.QuickGrid()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the framework's moving parts ---

// BenchmarkExecutionDriven measures the reference simulator's speed in
// simulated instructions per second.
func BenchmarkExecutionDriven(b *testing.B) {
	w, err := LoadWorkload("gzip")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	const n = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reference(cfg, w.Stream(1, 0, n))
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkFunctionalExecution measures the workload executor's speed.
func BenchmarkFunctionalExecution(b *testing.B) {
	w, _ := LoadWorkload("gzip")
	const n = 200_000
	buf := make([]trace.DynInst, trace.DefaultBatchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := w.Stream(uint64(i+1), 0, n)
		for src.NextBatch(buf) > 0 {
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// sweepBenchGrid is a 16-point single-cohort grid: every point shares
// (workload, k, R, seed) — the full trace identity — and varies only
// timing knobs, so the lockstep planner packs it into one group of
// exactly DefaultMaxGroup instances.
func sweepBenchGrid() []Config {
	ruus := []int{32, 64, 96, 128}
	widths := []int{2, 4, 6, 8}
	cfgs := make([]Config, 0, 16)
	for _, ruu := range ruus {
		for _, w := range widths {
			c := DefaultConfig()
			c.RUUSize, c.LSQSize = ruu, ruu/2
			c.DecodeWidth, c.IssueWidth, c.CommitWidth = w, w, w
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func sweepBenchGraph(b *testing.B) (*Graph, uint64) {
	b.Helper()
	w, err := LoadWorkload("gzip")
	if err != nil {
		b.Fatal(err)
	}
	g, err := Profile(DefaultConfig(), w.Stream(1, 0, 100_000), ProfileOptions{K: 1})
	if err != nil {
		b.Fatal(err)
	}
	return g, core.ReductionFor(g, 50_000)
}

// BenchmarkSweepPerPoint16 is the pre-lockstep sweep cost model: each
// of the 16 design points pays its own trace generation (StatSim per
// point). The inst/s metric counts simulated instructions only, so the
// generation overhead shows up as a lower rate.
func BenchmarkSweepPerPoint16(b *testing.B) {
	cfgs := sweepBenchGrid()
	g, r := sweepBenchGraph(b)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			m, err := core.StatSim(cfg, g, r, 1)
			if err != nil {
				b.Fatal(err)
			}
			insts += m.Instructions
		}
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSweepLockstep16 is the same 16-point grid through the batch
// entry point: one reduction + generation pass drives all 16 pipelines
// in lockstep. The inst/s ratio against BenchmarkSweepPerPoint16 is the
// sweep amortisation win.
func BenchmarkSweepLockstep16(b *testing.B) {
	cfgs := sweepBenchGrid()
	g, r := sweepBenchGraph(b)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		ms, err := core.SimulateBatch(cfgs, g, r, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range ms {
			insts += m.Instructions
		}
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "inst/s")
}

// oracleBenchStore builds a result store holding the 16-point sweep
// grid's real simulation results — the state a daemon reaches after one
// sweep — plus the matching keys in grid order.
func oracleBenchStore(b *testing.B) (*resultstore.Store, []resultstore.Key) {
	b.Helper()
	g, r := sweepBenchGraph(b)
	st, err := resultstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	cfgs := sweepBenchGrid()
	keys := make([]resultstore.Key, len(cfgs))
	for i, cfg := range cfgs {
		m, err := core.StatSim(cfg, g, r, 1)
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = resultstore.Key{
			ConfigFP: obs.Fingerprint(cfg),
			Workload: "gzip", K: 1, N: 100_000, Seed: 1, Red: r, SimSeed: 1,
			Dims: resultstore.Dims{RUU: cfg.RUUSize, LSQ: cfg.LSQSize,
				Decode: cfg.DecodeWidth, Issue: cfg.IssueWidth, Commit: cfg.CommitWidth, IFQ: cfg.IFQSize},
		}
		if err := st.Put(keys[i], m); err != nil {
			b.Fatal(err)
		}
	}
	return st, keys
}

// BenchmarkOracleExactHit is the two-tier oracle's tier-one fast path:
// fingerprinting one applied configuration and serving its stored
// metrics. One op answers one design point that BenchmarkSimulate (and
// BenchmarkSweepPerPoint16, per point) pays a full synthetic-trace
// simulation for — the ns/op ratio between them is the repeat-sweep
// speedup the result store exists to deliver.
func BenchmarkOracleExactHit(b *testing.B) {
	st, keys := oracleBenchStore(b)
	cfgs := sweepBenchGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The fingerprint is recomputed per lookup, exactly as the serving
		// path does: an exact hit costs hash + map read, nothing else.
		key := keys[i%len(keys)]
		key.ConfigFP = obs.Fingerprint(cfgs[i%len(cfgs)])
		if _, ok := st.Get(key); !ok {
			b.Fatal("exact hit missed")
		}
	}
}

// BenchmarkOracleSurrogate is tier two: one gated k-NN prediction over
// the trained model, uncertainty included.
func BenchmarkOracleSurrogate(b *testing.B) {
	st, keys := oracleBenchStore(b)
	model := surrogate.New(0)
	st.Range(func(k resultstore.Key, m core.Metrics) bool {
		model.Add(k.Context(), surrogate.FromDims(k.Dims.RUU, k.Dims.LSQ, k.Dims.Decode, k.Dims.Issue, k.Dims.Commit, k.Dims.IFQ), m.IPC(), m.EPC())
		return true
	})
	ctx := keys[0].Context()
	f := surrogate.FromDims(48, 24, 4, 4, 4, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, ok := model.Predict(ctx, f)
		if !ok || est.IPC <= 0 {
			b.Fatal("prediction refused")
		}
	}
}
