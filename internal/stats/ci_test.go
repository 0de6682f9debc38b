package stats

import (
	"math"
	"testing"
)

func TestTCriticalTableValues(t *testing.T) {
	cases := []struct {
		conf float64
		df   int
		want float64
	}{
		{0.95, 1, 12.706},
		{0.95, 2, 4.303},
		{0.95, 5, 2.571},
		{0.95, 10, 2.228},
		{0.95, 30, 2.042},
		{0.95, 40, 2.021},
		{0.95, 120, 1.980},
		{0.90, 1, 6.314},
		{0.90, 10, 1.812},
		{0.90, 60, 1.671},
		{0.99, 1, 63.657},
		{0.99, 10, 3.169},
		{0.99, 120, 2.617},
	}
	for _, c := range cases {
		got, err := TCritical(c.conf, c.df)
		if err != nil {
			t.Fatalf("TCritical(%v, %d): %v", c.conf, c.df, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("TCritical(%v, %d) = %v, want %v", c.conf, c.df, got, c.want)
		}
	}
}

func TestTCriticalInterpolationAndLimits(t *testing.T) {
	// Between tabulated rows the value must lie between its neighbours
	// (t decreases with df).
	for _, df := range []int{35, 50, 90} {
		got, err := TCritical(0.95, df)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := TCritical(0.95, 120)
		hi, _ := TCritical(0.95, 30)
		if got <= lo || got >= hi {
			t.Errorf("TCritical(0.95, %d) = %v outside (%v, %v)", df, got, lo, hi)
		}
	}
	// Far past the table it approaches the normal quantile from above.
	big, _ := TCritical(0.95, 1_000_000)
	if big < 1.960 || big > 1.961 {
		t.Errorf("TCritical(0.95, 1e6) = %v, want ~1.960", big)
	}
	// df clamps at 1.
	one, _ := TCritical(0.95, 0)
	want, _ := TCritical(0.95, 1)
	if one != want {
		t.Errorf("df=0 not clamped: %v vs %v", one, want)
	}
	if _, err := TCritical(0.80, 10); err == nil {
		t.Error("unsupported confidence accepted")
	}
}

func TestTCriticalMonotoneInDF(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 300; df++ {
		got, err := TCritical(0.95, df)
		if err != nil {
			t.Fatal(err)
		}
		if got > prev {
			t.Fatalf("t not monotone at df=%d: %v > %v", df, got, prev)
		}
		prev = got
	}
}

func TestMeanCI(t *testing.T) {
	// Known worked example: xs with mean 10, stddev 2, n=4, df=3,
	// t=3.182 -> half-width 3.182*2/2 = 3.182.
	xs := []float64{8, 10, 10, 12}
	// stddev = sqrt((4+0+0+4)/3) = sqrt(8/3)
	sd := math.Sqrt(8.0 / 3.0)
	ci, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	wantHalf := 3.182 * sd / 2
	if math.Abs(ci.Mean-10) > 1e-12 || math.Abs(ci.HalfWidth-wantHalf) > 1e-9 {
		t.Errorf("MeanCI = %+v, want mean 10 half %v", ci, wantHalf)
	}
	if ci.DF != 3 {
		t.Errorf("DF = %d, want 3", ci.DF)
	}
	if !ci.Contains(10) || ci.Contains(10+wantHalf+1e-9) {
		t.Error("Contains is wrong at the boundaries")
	}
	if got := ci.RelHalfWidth(); math.Abs(got-wantHalf/10) > 1e-12 {
		t.Errorf("RelHalfWidth = %v", got)
	}
}

func TestMeanCIDegenerate(t *testing.T) {
	ci, err := MeanCI([]float64{7}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Mean != 7 || ci.HalfWidth != 0 || ci.Lo != 7 || ci.Hi != 7 || ci.DF != 0 {
		t.Errorf("single observation: %+v", ci)
	}
	if _, err := MeanCI([]float64{1}, 0.42); err == nil {
		t.Error("unsupported confidence accepted for degenerate sample")
	}
	empty, err := MeanCI(nil, 0.95)
	if err != nil || empty.Mean != 0 || empty.HalfWidth != 0 {
		t.Errorf("empty sample: %+v, %v", empty, err)
	}
}

func TestStratifiedCISingleStratumMatchesMeanCI(t *testing.T) {
	xs := []float64{1.0, 1.2, 1.4, 1.1, 1.3}
	want, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	got, err := StratifiedCI([]Stratum{{Weight: 1, Mean: Mean(xs), Sigma: StdDev(xs), N: len(xs)}}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mean-want.Mean) > 1e-12 || math.Abs(got.HalfWidth-want.HalfWidth) > 1e-9 {
		t.Errorf("single stratum: got %+v want %+v", got, want)
	}
	if got.DF != want.DF {
		t.Errorf("DF = %d, want %d", got.DF, want.DF)
	}
}

func TestStratifiedCIWeightsAndBias(t *testing.T) {
	strata := []Stratum{
		{Weight: 0.6, Mean: 2.0, Sigma: 0.2, N: 4},
		{Weight: 0.4, Mean: 1.0, Sigma: 0.1, N: 4},
	}
	ci, err := StratifiedCI(strata, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ci.Mean-(0.6*2.0+0.4*1.0)) > 1e-12 {
		t.Errorf("stratified mean = %v", ci.Mean)
	}
	// Adding bias allowances must widen the interval by exactly
	// sum W_h * bias_h without changing mean or degrees of freedom.
	biased := []Stratum{
		{Weight: 0.6, Mean: 2.0, Sigma: 0.2, N: 4, Bias: 0.1},
		{Weight: 0.4, Mean: 1.0, Sigma: 0.1, N: 4, Bias: 0.05},
	}
	bci, err := StratifiedCI(biased, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := 0.6*0.1 + 0.4*0.05
	if math.Abs((bci.HalfWidth-ci.HalfWidth)-wantExtra) > 1e-12 {
		t.Errorf("bias widened by %v, want %v", bci.HalfWidth-ci.HalfWidth, wantExtra)
	}
	if bci.Mean != ci.Mean || bci.DF != ci.DF {
		t.Errorf("bias changed mean/df: %+v vs %+v", bci, ci)
	}
}

func TestStratifiedCIZeroVarianceStrata(t *testing.T) {
	// Exactly known strata (sigma 0) contribute mean but no width.
	ci, err := StratifiedCI([]Stratum{
		{Weight: 0.5, Mean: 4, Sigma: 0, N: 1},
		{Weight: 0.5, Mean: 2, Sigma: 0, N: 3},
	}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Mean != 3 || ci.HalfWidth != 0 {
		t.Errorf("exact strata: %+v", ci)
	}
	// A single-observation stratum with nonzero sigma still widens the
	// interval (clamped df, no division by zero).
	ci, err = StratifiedCI([]Stratum{{Weight: 1, Mean: 4, Sigma: 0.5, N: 1}}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.HalfWidth <= 0 || math.IsNaN(ci.HalfWidth) {
		t.Errorf("singleton stratum: %+v", ci)
	}
	if ci.DF != 1 {
		t.Errorf("singleton stratum DF = %d, want 1", ci.DF)
	}
}

func TestStratifiedCIWelchSatterthwaiteDF(t *testing.T) {
	// Equal strata with n=5 each: W-S df for k strata of equal
	// contribution v is (k*v)^2 / (k*v^2/4) = 4k.
	strata := []Stratum{
		{Weight: 0.5, Mean: 1, Sigma: 0.2, N: 5},
		{Weight: 0.5, Mean: 1, Sigma: 0.2, N: 5},
	}
	ci, err := StratifiedCI(strata, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.DF != 8 {
		t.Errorf("W-S df = %d, want 8", ci.DF)
	}
}
