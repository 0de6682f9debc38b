package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Sample stddev of this classic set is ~2.138.
	if sd := StdDev(xs); !almostEqual(sd, 2.13809, 1e-4) {
		t.Errorf("StdDev = %v, want ~2.138", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/singleton cases should be 0")
	}
}

func TestCoV(t *testing.T) {
	xs := []float64{1, 1, 1, 1}
	if c := CoV(xs); c != 0 {
		t.Errorf("CoV of constants = %v, want 0", c)
	}
	xs = []float64{9, 10, 11}
	want := StdDev(xs) / 10
	if c := CoV(xs); !almostEqual(c, want, 1e-12) {
		t.Errorf("CoV = %v, want %v", c, want)
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Error("CoV with zero mean should be 0")
	}
}

func TestAbsError(t *testing.T) {
	if e := AbsError(1.1, 1.0); !almostEqual(e, 0.1, 1e-12) {
		t.Errorf("AbsError = %v, want 0.1", e)
	}
	if e := AbsError(0.9, 1.0); !almostEqual(e, 0.1, 1e-12) {
		t.Errorf("AbsError = %v, want 0.1 (symmetric)", e)
	}
	if AbsError(5, 0) != 0 {
		t.Error("zero reference should yield 0")
	}
}

func TestRelError(t *testing.T) {
	// Perfectly predicted trend even with absolute offset.
	if e := RelError(1.0, 2.0, 1.5, 3.0); e != 0 {
		t.Errorf("RelError of matching trend = %v, want 0", e)
	}
	// SS predicts flat, EDS doubles: ratio 1 vs 2 -> error 0.5.
	if e := RelError(1.0, 1.0, 1.0, 2.0); !almostEqual(e, 0.5, 1e-12) {
		t.Errorf("RelError = %v, want 0.5", e)
	}
	if RelError(0, 1, 1, 1) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}
