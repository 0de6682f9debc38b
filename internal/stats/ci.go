package stats

import (
	"fmt"
	"math"
	"sort"
)

// Student-t confidence machinery shared by the adaptive fidelity engine
// (stratified IPC/EPC intervals) and any future surrogate work that
// needs honest uncertainty on small samples.

// tTable holds two-sided Student-t critical values t_{alpha/2, df} for
// the supported confidence levels, indexed by degrees of freedom
// 1..30 then 40, 60, 120. Beyond the table the normal quantile is the
// correct limit; between tabulated rows we interpolate linearly in
// 1/df, which matches the printed tables to three decimals.
var tTable = map[float64][]struct {
	df int
	t  float64
}{
	0.90: {{1, 6.314}, {2, 2.920}, {3, 2.353}, {4, 2.132}, {5, 2.015},
		{6, 1.943}, {7, 1.895}, {8, 1.860}, {9, 1.833}, {10, 1.812},
		{11, 1.796}, {12, 1.782}, {13, 1.771}, {14, 1.761}, {15, 1.753},
		{16, 1.746}, {17, 1.740}, {18, 1.734}, {19, 1.729}, {20, 1.725},
		{21, 1.721}, {22, 1.717}, {23, 1.714}, {24, 1.711}, {25, 1.708},
		{26, 1.706}, {27, 1.703}, {28, 1.701}, {29, 1.699}, {30, 1.697},
		{40, 1.684}, {60, 1.671}, {120, 1.658}},
	0.95: {{1, 12.706}, {2, 4.303}, {3, 3.182}, {4, 2.776}, {5, 2.571},
		{6, 2.447}, {7, 2.365}, {8, 2.306}, {9, 2.262}, {10, 2.228},
		{11, 2.201}, {12, 2.179}, {13, 2.160}, {14, 2.145}, {15, 2.131},
		{16, 2.120}, {17, 2.110}, {18, 2.101}, {19, 2.093}, {20, 2.086},
		{21, 2.080}, {22, 2.074}, {23, 2.069}, {24, 2.064}, {25, 2.060},
		{26, 2.056}, {27, 2.052}, {28, 2.048}, {29, 2.045}, {30, 2.042},
		{40, 2.021}, {60, 2.000}, {120, 1.980}},
	0.99: {{1, 63.657}, {2, 9.925}, {3, 5.841}, {4, 4.604}, {5, 4.032},
		{6, 3.707}, {7, 3.499}, {8, 3.355}, {9, 3.250}, {10, 3.169},
		{11, 3.106}, {12, 3.055}, {13, 3.012}, {14, 2.977}, {15, 2.947},
		{16, 2.921}, {17, 2.898}, {18, 2.878}, {19, 2.861}, {20, 2.845},
		{21, 2.831}, {22, 2.819}, {23, 2.807}, {24, 2.797}, {25, 2.787},
		{26, 2.779}, {27, 2.771}, {28, 2.763}, {29, 2.756}, {30, 2.750},
		{40, 2.704}, {60, 2.660}, {120, 2.617}},
}

// normal two-sided quantiles z_{alpha/2}: the df -> infinity limit of
// the t rows above.
var zLimit = map[float64]float64{0.90: 1.645, 0.95: 1.960, 0.99: 2.576}

// TCritical returns the two-sided Student-t critical value for the
// given confidence level (0.90, 0.95 or 0.99) and degrees of freedom.
// df < 1 is clamped to 1 (the most conservative row); unsupported
// confidence levels return an error rather than a silently wrong
// interval.
func TCritical(confidence float64, df int) (float64, error) {
	rows, ok := tTable[confidence]
	if !ok {
		return 0, fmt.Errorf("stats: unsupported confidence %v (want one of 0.90, 0.95, 0.99)", confidence)
	}
	if df < 1 {
		df = 1
	}
	last := rows[len(rows)-1]
	if df >= last.df {
		// Interpolate between the last tabulated row and the normal
		// limit in 1/df (exact at both endpoints, monotone between).
		z := zLimit[confidence]
		frac := float64(last.df) / float64(df)
		return z + (last.t-z)*frac, nil
	}
	i := sort.Search(len(rows), func(i int) bool { return rows[i].df >= df })
	if rows[i].df == df {
		return rows[i].t, nil
	}
	lo, hi := rows[i-1], rows[i]
	// Linear in 1/df between the bracketing rows.
	x := (1/float64(df) - 1/float64(hi.df)) / (1/float64(lo.df) - 1/float64(hi.df))
	return hi.t + x*(lo.t-hi.t), nil
}

// CI is a two-sided confidence interval on a mean.
type CI struct {
	Mean       float64
	Lo, Hi     float64
	HalfWidth  float64
	Confidence float64
	DF         int // Student-t degrees of freedom used
}

// RelHalfWidth returns HalfWidth / |Mean| (0 for a zero mean) — the
// "target_ci" unit the fidelity engine converges on.
func (c CI) RelHalfWidth() float64 {
	if c.Mean == 0 {
		return 0
	}
	return c.HalfWidth / math.Abs(c.Mean)
}

// Contains reports whether x lies inside the interval.
func (c CI) Contains(x float64) bool { return x >= c.Lo && x <= c.Hi }

// MeanCI returns the Student-t confidence interval on the mean of xs.
// With fewer than two observations the interval degenerates to a point
// (HalfWidth 0, DF 0): the caller owns deciding whether a single
// observation is trustworthy.
func MeanCI(xs []float64, confidence float64) (CI, error) {
	ci := CI{Mean: Mean(xs), Confidence: confidence}
	ci.Lo, ci.Hi = ci.Mean, ci.Mean
	if len(xs) < 2 {
		if _, ok := tTable[confidence]; !ok {
			return CI{}, fmt.Errorf("stats: unsupported confidence %v (want one of 0.90, 0.95, 0.99)", confidence)
		}
		return ci, nil
	}
	ci.DF = len(xs) - 1
	t, err := TCritical(confidence, ci.DF)
	if err != nil {
		return CI{}, err
	}
	ci.HalfWidth = t * StdDev(xs) / math.Sqrt(float64(len(xs)))
	ci.Lo, ci.Hi = ci.Mean-ci.HalfWidth, ci.Mean+ci.HalfWidth
	return ci, nil
}

// Stratum is one stratum's contribution to a stratified estimate: a
// weight (stratum share of the population, summing to 1 across
// strata), the sample mean of N observations drawn within the stratum,
// and their sample standard deviation. Bias is an additive worst-case
// allowance for systematic error of the estimator that produced the
// observations (e.g. a cheap model's known bias bound, in the units of
// the mean); it widens the interval without entering the variance.
type Stratum struct {
	Weight float64
	Mean   float64
	Sigma  float64
	N      int
	Bias   float64
}

// StratifiedCI returns the confidence interval on the stratified mean
// sum_h W_h * mean_h. The sampling-noise part is a Student-t interval
// on sqrt(sum_h W_h^2 sigma_h^2 / n_h) with Welch–Satterthwaite
// degrees of freedom; the systematic part sum_h W_h * bias_h is added
// to the half-width directly (interval arithmetic, not variance), so
// the interval stays honest when some strata are estimated by a model
// with known bias rather than sampled exactly.
func StratifiedCI(strata []Stratum, confidence float64) (CI, error) {
	ci := CI{Confidence: confidence}
	var variance, bias, dfNum, dfDen float64
	for _, s := range strata {
		ci.Mean += s.Weight * s.Mean
		bias += s.Weight * math.Abs(s.Bias)
		if s.N < 1 || s.Sigma == 0 {
			continue
		}
		v := s.Weight * s.Weight * s.Sigma * s.Sigma / float64(s.N)
		variance += v
		dfNum += v
		// Strata with a single observation contribute variance but no
		// degrees of freedom; charging them df=1 in the denominator
		// keeps the Welch–Satterthwaite estimate conservative instead
		// of dividing by zero.
		den := float64(s.N - 1)
		if den < 1 {
			den = 1
		}
		dfDen += v * v / den
	}
	ci.DF = 1
	if dfDen > 0 {
		if df := int(dfNum * dfNum / dfDen); df > 1 {
			ci.DF = df
		}
	}
	t, err := TCritical(confidence, ci.DF)
	if err != nil {
		return CI{}, err
	}
	ci.HalfWidth = t*math.Sqrt(variance) + bias
	ci.Lo, ci.Hi = ci.Mean-ci.HalfWidth, ci.Mean+ci.HalfWidth
	return ci, nil
}
