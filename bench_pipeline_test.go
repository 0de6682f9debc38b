package statsim

import (
	"testing"

	"repro/internal/trace"
)

// The pipeline benchmarks measure the three stages of the statistical
// simulation methodology in isolation plus the whole path end to end.
// They are per-stage probes, not a regression gate: statbench (bench/)
// is the measurement of record, and a speed claim that cites one of
// these runs it with -count 6 or more.
const (
	benchProfileN  = 100_000
	benchSynthR    = 2
	benchSeed      = 1
	benchWorkloadN = "gzip"
)

func benchWorkload(b *testing.B) Workload {
	b.Helper()
	w, err := LoadWorkload(benchWorkloadN)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkProfile measures statistical profiling (stream execution +
// SFG construction) in profiled instructions per second.
func BenchmarkProfile(b *testing.B) {
	w := benchWorkload(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Profile(cfg, w.Stream(benchSeed, 0, benchProfileN), ProfileOptions{K: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchProfileN)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkGenerate measures synthetic trace generation alone: the
// stochastic walk over the reduced SFG, drained through the stream API.
func BenchmarkGenerate(b *testing.B) {
	w := benchWorkload(b)
	cfg := DefaultConfig()
	g, err := Profile(cfg, w.Stream(benchSeed, 0, benchProfileN), ProfileOptions{K: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		src, err := NewSyntheticTrace(g, benchSynthR, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		total += drain(src)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSimulate measures the trace-driven timing simulator on a
// pre-materialised synthetic trace (pure simulation, no generation).
func BenchmarkSimulate(b *testing.B) {
	w := benchWorkload(b)
	cfg := DefaultConfig()
	g, err := Profile(cfg, w.Stream(benchSeed, 0, benchProfileN), ProfileOptions{K: 1})
	if err != nil {
		b.Fatal(err)
	}
	src, err := NewSyntheticTrace(g, benchSynthR, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	insts := trace.Collect(src, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateTrace(cfg, trace.NewSliceSource(insts))
	}
	b.ReportMetric(float64(len(insts))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkEndToEnd measures the whole statistical simulation pipeline:
// profile the workload, reduce, generate and simulate the synthetic
// trace. Reported throughput is in profiled (original-stream)
// instructions per second — the paper's headline speed metric.
func BenchmarkEndToEnd(b *testing.B) {
	w := benchWorkload(b)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Profile(cfg, w.Stream(benchSeed, 0, benchProfileN), ProfileOptions{K: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := StatSim(cfg, g, ReductionFor(g, benchProfileN/10), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchProfileN)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// batchDrainer is the chunked delivery interface, declared locally so
// this benchmark file also compiles (and falls back to Next) on trees
// that predate trace.BatchSource.
type batchDrainer interface {
	NextBatch(dst []trace.DynInst) int
}

// drain consumes a source to exhaustion, returning the instruction
// count. It uses chunked delivery when the source supports it — the
// way pipeline consumers are meant to drain a generator.
func drain(src Source) uint64 {
	var n uint64
	if bs, ok := src.(batchDrainer); ok {
		buf := make([]trace.DynInst, 1024)
		for {
			k := bs.NextBatch(buf)
			if k == 0 {
				return n
			}
			n += uint64(k)
		}
	}
	var d trace.DynInst
	for src.Next(&d) {
		n++
	}
	return n
}
