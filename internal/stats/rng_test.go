package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d has fraction %.4f, want ~0.1", i, frac)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(99)
	const n = 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if m := Mean(xs); math.Abs(m) > 0.02 {
		t.Errorf("normal mean %.4f, want ~0", m)
	}
	if sd := StdDev(xs); math.Abs(sd-1) > 0.02 {
		t.Errorf("normal stddev %.4f, want ~1", sd)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(5)
	a := parent.Split(1)
	b := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams produced %d/100 identical draws", same)
	}
}

func TestRNGSeedsNeverAllZeroState(t *testing.T) {
	// Any seed, including zero, must produce a usable generator.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		v1, v2 := r.Uint64(), r.Uint64()
		return v1 != 0 || v2 != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRNGSkip pins Skip(n) to n Uint64 calls: the same state, hence
// the same stream afterwards.
func TestRNGSkip(t *testing.T) {
	for _, n := range []int{0, 1, 999, 1000} {
		for seed := uint64(0); seed < 4; seed++ {
			skipped, drawn := NewRNG(seed), NewRNG(seed)
			skipped.Skip(n)
			for i := 0; i < n; i++ {
				drawn.Uint64()
			}
			if *skipped != *drawn {
				t.Fatalf("seed %d: Skip(%d) state differs from %d Uint64 calls", seed, n, n)
			}
			if a, b := skipped.Uint64(), drawn.Uint64(); a != b {
				t.Fatalf("seed %d: after Skip(%d) next draw %#x, want %#x", seed, n, a, b)
			}
		}
	}
}

// TestJumpMatchesSkip pins Jump to Skip: for every step count and seed,
// the state and the next draw after r.Jump(NewJump(n)) equal those after
// r.Skip(n).
func TestJumpMatchesSkip(t *testing.T) {
	for _, n := range []int{0, 1, 999, 1000} {
		j := NewJump(n)
		for seed := uint64(0); seed < 1000; seed++ {
			jumped, skipped := NewRNG(seed), NewRNG(seed)
			jumped.Jump(j)
			skipped.Skip(n)
			if *jumped != *skipped {
				t.Fatalf("seed %d: Jump(%d) state differs from Skip(%d)", seed, n, n)
			}
			if a, b := jumped.Uint64(), skipped.Uint64(); a != b {
				t.Fatalf("seed %d: after Jump(%d) next draw %#x, want %#x", seed, n, a, b)
			}
		}
	}
}
