package statsim

import (
	"runtime"
	"testing"

	"repro/internal/service"
)

// BenchmarkProfileEnvelope is the durable store's rung of the ladder:
// rendering gcc's 1M-instruction k=1 profile as the checksummed
// envelope statsimd writes to disk and ships to peers, and parsing it
// back. The graph is frozen first, as statsimd freezes a fresh profile
// before saving it. The "bytes" metric is the envelope's size, and
// "graph_MiB" the heap the frozen graph retains: HeapAlloc after a GC
// with the graph live, less HeapAlloc after a GC before profiling. It
// is what one warm graph costs a daemon's cache.
func BenchmarkProfileEnvelope(b *testing.B) {
	w, err := LoadWorkload("gcc")
	if err != nil {
		b.Fatal(err)
	}
	key := service.ProfileKey{Workload: "gcc", K: 1, N: 1_000_000, Seed: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := Profile(DefaultConfig(), w.Stream(key.Seed, 0, key.N), ProfileOptions{K: key.K})
	if err != nil {
		b.Fatal(err)
	}
	g.Freeze()
	runtime.GC()
	runtime.ReadMemStats(&after)
	graphMiB := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	env, err := service.EncodeProfileEnvelope(key, g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := service.EncodeProfileEnvelope(key, g); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(env)), "bytes")
		b.ReportMetric(graphMiB, "graph_MiB")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := service.DecodeProfileEnvelope(env, &key); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(env)), "bytes")
		b.ReportMetric(graphMiB, "graph_MiB")
	})
}
