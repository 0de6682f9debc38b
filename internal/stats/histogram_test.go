package stats

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHistogramAddAndCount(t *testing.T) {
	h := NewHistogram(8)
	h.Add(1)
	h.Add(1)
	h.Add(3)
	if got := h.Count(1); got != 2 {
		t.Errorf("Count(1) = %d, want 2", got)
	}
	if got := h.Count(3); got != 1 {
		t.Errorf("Count(3) = %d, want 1", got)
	}
	if got := h.Total(); got != 3 {
		t.Errorf("Total = %d, want 3", got)
	}
}

func TestHistogramClampsAtMax(t *testing.T) {
	h := NewHistogram(4)
	h.Add(100)
	h.Add(4)
	if got := h.Count(4); got != 2 {
		t.Errorf("Count(4) = %d, want 2 (clamped)", got)
	}
	if got := h.Count(100); got != 2 {
		t.Errorf("Count(100) should clamp to Count(4): got %d", got)
	}
}

func TestHistogramPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Add(0)")
		}
	}()
	NewHistogram(4).Add(0)
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10)
	h.Add(2)
	h.Add(4)
	if m := h.Mean(); m != 3 {
		t.Errorf("Mean = %v, want 3", m)
	}
	if m := NewHistogram(10).Mean(); m != 0 {
		t.Errorf("empty Mean = %v, want 0", m)
	}
}

func TestHistogramSampleOnlyReturnsObservedValues(t *testing.T) {
	h := NewHistogram(16)
	h.AddN(3, 10)
	h.AddN(7, 30)
	r := NewRNG(1)
	seen := map[int]int{}
	for i := 0; i < 4000; i++ {
		seen[h.Sample(r.Float64())]++
	}
	if len(seen) != 2 {
		t.Fatalf("sampled values %v, want only {3, 7}", seen)
	}
	// 7 has 3x the mass of 3.
	ratio := float64(seen[7]) / float64(seen[3])
	if ratio < 2.4 || ratio > 3.6 {
		t.Errorf("mass ratio %.2f, want ~3", ratio)
	}
}

// TestHistogramContainsFunc pins ContainsFunc to the values Sample can
// return: it visits exactly the non-empty values, clamped, in
// increasing order, stops at the first match, and follows later
// mutation.
func TestHistogramContainsFunc(t *testing.T) {
	support := func(h *Histogram) []int {
		var vs []int
		h.ContainsFunc(func(v int) bool { vs = append(vs, v); return false })
		return vs
	}
	h := NewHistogram(16)
	if vs := support(h); vs != nil {
		t.Fatalf("empty histogram visits %v, want none", vs)
	}
	h.AddN(7, 30)
	h.AddN(3, 10)
	h.Add(99) // clamped to 16
	if got, want := fmt.Sprint(support(h)), "[3 7 16]"; got != want {
		t.Fatalf("visited %s, want %s", got, want)
	}
	r := NewRNG(2)
	for i := 0; i < 4000; i++ {
		v := h.Sample(r.Float64())
		if !h.ContainsFunc(func(s int) bool { return s == v }) {
			t.Fatalf("Sample returned %d, which ContainsFunc never visits", v)
		}
	}
	visits := 0
	if !h.ContainsFunc(func(v int) bool { visits++; return v == 7 }) || visits != 2 {
		t.Fatalf("match on 7: %d visits, want 2 and true", visits)
	}
	if h.ContainsFunc(func(v int) bool { return v > 16 }) {
		t.Fatal("ContainsFunc matched a value above Max")
	}
	h.Add(1)
	if got, want := fmt.Sprint(support(h)), "[1 3 7 16]"; got != want {
		t.Fatalf("visited after Add %s, want %s", got, want)
	}
}

func TestHistogramSampleEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic sampling empty histogram")
		}
	}()
	NewHistogram(4).Sample(0.5)
}

func TestHistogramSampleBoundaryU(t *testing.T) {
	h := NewHistogram(4)
	h.Add(2)
	if v := h.Sample(0); v != 2 {
		t.Errorf("Sample(0) = %d, want 2", v)
	}
	if v := h.Sample(0.999999); v != 2 {
		t.Errorf("Sample(~1) = %d, want 2", v)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(8)
	a.AddN(2, 5)
	b := NewHistogram(8)
	b.AddN(2, 3)
	b.AddN(5, 1)
	a.Merge(b)
	if a.Count(2) != 8 || a.Count(5) != 1 || a.Total() != 9 {
		t.Errorf("merge wrong: count2=%d count5=%d total=%d", a.Count(2), a.Count(5), a.Total())
	}
	// Merging nil or empty is a no-op.
	a.Merge(nil)
	a.Merge(NewHistogram(8))
	if a.Total() != 9 {
		t.Errorf("no-op merges changed total to %d", a.Total())
	}
}

func TestHistogramMergeBoundMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched bounds")
		}
	}()
	b := NewHistogram(4)
	b.Add(1)
	NewHistogram(8).Merge(b)
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram(8)
	h.AddN(3, 4)
	c := h.Clone()
	c.Add(3)
	if h.Count(3) != 4 {
		t.Errorf("clone mutated original: %d", h.Count(3))
	}
	if c.Count(3) != 5 {
		t.Errorf("clone count = %d, want 5", c.Count(3))
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(100)
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	if q := h.Quantile(0.5); q < 48 || q > 52 {
		t.Errorf("median = %d, want ~50", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Errorf("q1 = %d, want 100", q)
	}
}

// Property: sampling can only yield values that were added (after
// clamping), for any sequence of additions and any u.
func TestHistogramSampleProperty(t *testing.T) {
	f := func(vals []uint8, u float64) bool {
		if len(vals) == 0 {
			return true
		}
		u = u - float64(int(u)) // fractional part
		if u < 0 {
			u = -u
		}
		h := NewHistogram(64)
		added := map[int]bool{}
		for _, v := range vals {
			x := int(v%64) + 1
			h.Add(x)
			added[x] = true
		}
		return added[h.Sample(u)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Total always equals the sum of all counts.
func TestHistogramTotalInvariant(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram(MaxDependencyDistance)
		for _, v := range vals {
			h.Add(int(v)%2000 + 1)
		}
		var sum uint64
		for v := 1; v <= h.Max; v++ {
			sum += h.Count(v)
		}
		return sum == h.Total() && h.Total() == uint64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramFreezeEnablesConcurrentSampling: every read of a frozen
// histogram — a multi-value table, a single value, and one promoted
// past sparseMax before it froze — writes nothing, so 8 goroutines may
// run them at once; the race detector enforces the claim when this test
// runs under -race.
func TestHistogramFreezeEnablesConcurrentSampling(t *testing.T) {
	multi, one, wide := NewHistogram(64), NewHistogram(64), NewHistogram(MaxDependencyDistance)
	for v := 1; v <= 16; v++ {
		multi.AddN(v, uint64(v))
	}
	one.AddN(9, 40)
	for v := 1; v <= 3*sparseMax; v++ {
		wide.AddN(v*5, uint64(v%7+1))
	}
	for _, h := range []*Histogram{multi, one, wide} {
		h.Freeze()
		want, _ := h.AppendBinary(nil)
		mean, med := h.Mean(), h.Quantile(0.5)
		count := h.Count(med)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for j := 0; j < 500; j++ {
					u := float64((seed*500+j)%997) / 997
					if v := h.Sample(u); h.Count(v) == 0 {
						t.Errorf("sampled unobserved value %d", v)
					}
				}
				if h.Mean() != mean || h.Quantile(0.5) != med || h.Count(med) != count {
					t.Error("Mean, Quantile or Count differ across goroutines")
				}
				if b, err := h.AppendBinary(nil); err != nil || !bytes.Equal(b, want) {
					t.Errorf("AppendBinary differs across goroutines: %v", err)
				}
				if !h.ContainsFunc(func(v int) bool { return v == med }) {
					t.Error("ContainsFunc misses the median")
				}
				if c := h.Clone(); c.Total() != h.Total() || c.Mean() != mean {
					t.Error("Clone differs from its frozen original")
				}
			}(i)
		}
		wg.Wait()
	}
	// Freeze on an empty histogram is a no-op, not a panic.
	NewHistogram(8).Freeze()
}

// TestHistogramHeaderCompact pins the histogram header at 96 bytes: a
// frozen 1M-instruction graph holds tens of thousands of histograms, and
// 96 is an allocation size class where 120 bytes cost 128.
func TestHistogramHeaderCompact(t *testing.T) {
	if size := unsafe.Sizeof(Histogram{}); size > 96 {
		t.Fatalf("Histogram header is %d bytes, want at most 96", size)
	}
}
