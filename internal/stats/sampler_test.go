package stats

import (
	"testing"
	"testing/quick"
)

func TestWeightedSamplerProportions(t *testing.T) {
	s := NewWeightedSampler([]uint64{10, 0, 30, 60})
	r := NewRNG(2)
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Sample(r.Float64())]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[1])
	}
	for i, want := range []float64{0.1, 0, 0.3, 0.6} {
		got := float64(counts[i]) / n
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("index %d sampled with frequency %.3f, want %.3f", i, got, want)
		}
	}
}

func TestWeightedSamplerDecrement(t *testing.T) {
	s := NewWeightedSampler([]uint64{2, 1})
	if !s.Decrement(0) {
		t.Fatal("Decrement(0) should succeed")
	}
	if s.Weight(0) != 1 {
		t.Errorf("weight 0 = %d, want 1", s.Weight(0))
	}
	if s.Total() != 2 {
		t.Errorf("total = %d, want 2", s.Total())
	}
	s.Decrement(0)
	if s.Decrement(0) {
		t.Error("Decrement of zero weight should report false")
	}
	// Only index 1 remains.
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if got := s.Sample(r.Float64()); got != 1 {
			t.Fatalf("Sample = %d after exhausting index 0, want 1", got)
		}
	}
}

func TestWeightedSamplerEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWeightedSampler([]uint64{0, 0}).Sample(0.5)
}

func TestWeightedSamplerSingleElement(t *testing.T) {
	s := NewWeightedSampler([]uint64{7})
	for _, u := range []float64{0, 0.5, 0.9999} {
		if got := s.Sample(u); got != 0 {
			t.Fatalf("Sample(%v) = %d, want 0", u, got)
		}
	}
}

// Property: Sample never returns a zero-weight index, and Total always
// equals the sum of weights, under arbitrary decrements.
func TestWeightedSamplerInvariants(t *testing.T) {
	f := func(weights []uint8, ops []uint8, u float64) bool {
		if len(weights) == 0 {
			return true
		}
		ws := make([]uint64, len(weights))
		var total uint64
		for i, w := range weights {
			ws[i] = uint64(w)
			total += uint64(w)
		}
		s := NewWeightedSampler(ws)
		for _, op := range ops {
			i := int(op) % len(ws)
			if s.Decrement(i) {
				total--
			}
		}
		if s.Total() != total {
			return false
		}
		if total == 0 {
			return true
		}
		u = u - float64(int(u))
		if u < 0 {
			u = -u
		}
		idx := s.Sample(u)
		return s.Weight(idx) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMatchesWeights(t *testing.T) {
	c := NewCDF([]uint64{1, 0, 3})
	r := NewRNG(9)
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[c.Sample(r.Float64())]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[1])
	}
	got := float64(counts[2]) / n
	if got < 0.72 || got > 0.78 {
		t.Errorf("index 2 frequency %.3f, want ~0.75", got)
	}
}

func TestCDFEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCDF(nil).Sample(0.5)
}

// Property: CDF and WeightedSampler agree for identical weights and u.
func TestCDFWeightedSamplerAgree(t *testing.T) {
	f := func(weights []uint8, u float64) bool {
		if len(weights) == 0 {
			return true
		}
		ws := make([]uint64, len(weights))
		var total uint64
		for i, w := range weights {
			ws[i] = uint64(w)
			total += uint64(w)
		}
		if total == 0 {
			return true
		}
		u = u - float64(int(u))
		if u < 0 {
			u = -u
		}
		return NewCDF(ws).Sample(u) == NewWeightedSampler(ws).Sample(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
