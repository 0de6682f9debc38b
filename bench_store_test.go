package statsim

import (
	"testing"

	"repro/internal/service"
)

// BenchmarkProfileEnvelope is the durable store's rung of the ladder:
// rendering gcc's 1M-instruction k=1 profile as the checksummed
// envelope statsimd writes to disk and ships to peers, and parsing it
// back. The graph is frozen first, as statsimd freezes a fresh profile
// before saving it. The "bytes" metric is the envelope's size.
func BenchmarkProfileEnvelope(b *testing.B) {
	w, err := LoadWorkload("gcc")
	if err != nil {
		b.Fatal(err)
	}
	key := service.ProfileKey{Workload: "gcc", K: 1, N: 1_000_000, Seed: 1}
	g, err := Profile(DefaultConfig(), w.Stream(key.Seed, 0, key.N), ProfileOptions{K: key.K})
	if err != nil {
		b.Fatal(err)
	}
	g.Freeze()
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
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := service.DecodeProfileEnvelope(env, &key); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(env)), "bytes")
	})
}
