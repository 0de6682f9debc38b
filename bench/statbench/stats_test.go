package main

import (
	"math"
	"testing"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 0.5, true},
		{39, 0.5, true},
		{40, 0.75, true},
		{99, 0.75, true},
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := tailQuantile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %t; want %v, %t", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && float64(tc.n)*(1-got) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than 10 samples beyond it", tc.n, got)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 0.75: 3.25, 1: 4} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
