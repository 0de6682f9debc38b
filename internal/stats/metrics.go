package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs;
// it returns 0 when fewer than two observations are present.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// CoV returns the coefficient of variation — standard deviation divided
// by mean — used in §4.1 to quantify convergence of IPC across synthetic
// traces generated with different random seeds. It returns 0 when the
// mean is zero.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(m)
}

// AbsError returns the absolute prediction error of §4.2:
//
//	AE = |Mss - Meds| / Meds
//
// where Mss is the statistically simulated metric and Meds the
// execution-driven reference. It returns 0 when the reference is zero.
func AbsError(ss, eds float64) float64 {
	if eds == 0 {
		return 0
	}
	return math.Abs(ss-eds) / math.Abs(eds)
}

// RelError returns the relative prediction error of §4.5 for the move
// from design point A to design point B:
//
//	RE = |(Mb,ss/Ma,ss) - (Mb,eds/Ma,eds)| / (Mb,eds/Ma,eds)
//
// i.e. the error of the predicted trend rather than of a single point.
func RelError(aSS, bSS, aEDS, bEDS float64) float64 {
	if aSS == 0 || aEDS == 0 || bEDS == 0 {
		return 0
	}
	ssRatio := bSS / aSS
	edsRatio := bEDS / aEDS
	return math.Abs(ssRatio-edsRatio) / math.Abs(edsRatio)
}
