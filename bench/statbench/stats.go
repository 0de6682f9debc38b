package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the method numpy and Python's statistics.quantiles
// "inclusive" use). xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder holds the percentiles a latency tail may be reported at.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// tailQuantile returns the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it, and false when even the median
// does not.
func tailQuantile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			best, ok = q, true
		}
	}
	return best, ok
}

// splitmix64 is the seed mixer every derived input goes through, so one
// --seed fixes the whole request sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// perm returns a Fisher-Yates permutation of 0..n-1 driven by seed.
func perm(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s := seed
	for i := n - 1; i > 0; i-- {
		s = splitmix64(s)
		j := int(s % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
