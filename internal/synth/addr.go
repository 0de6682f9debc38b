package synth

import "repro/internal/sfg"

// strideCDF is a sampling-ready form of one slot's AddrProfile.
type strideCDF struct {
	deltas []int64
	cum    []uint64
	total  uint64
	random bool // model as uniform within the footprint
}

func buildStrideCDF(ap *sfg.AddrProfile) *strideCDF {
	c := &strideCDF{random: ap.MostlyRandom() || len(ap.Strides) == 0}
	if c.random {
		return c
	}
	// The table is in increasing delta order, which keeps sampling
	// deterministic.
	c.deltas = make([]int64, len(ap.Strides))
	c.cum = make([]uint64, len(ap.Strides))
	var run uint64
	for i, s := range ap.Strides {
		run += s.Count
		c.deltas[i], c.cum[i] = s.Delta, run
	}
	c.total = run
	return c
}

func (c *strideCDF) sample(u float64) int64 {
	target := uint64(u * float64(c.total))
	if target >= c.total {
		target = c.total - 1
	}
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return c.deltas[lo]
}

// addrState tracks one slot's synthetic address stream.
type addrState struct {
	last uint64
	has  bool
}

// synthesizeAddr produces the next effective address for the slot
// described by ap, updating st. Addresses stay within the profiled
// footprint: stride walks wrap around it exactly like the workload
// substrate's own generators.
func (t *TraceSource) synthesizeAddr(ap *sfg.AddrProfile, st *addrState, cdf *strideCDF) uint64 {
	if !st.has {
		st.last = ap.First
		st.has = true
		return st.last
	}
	span := ap.Max - ap.Min + 8
	var next uint64
	if cdf.random || cdf.total == 0 {
		next = ap.Min + (t.rng.Uint64()%span)&^7
	} else {
		delta := cdf.sample(t.rng.Float64())
		next = uint64(int64(st.last) + delta)
		if next < ap.Min || next > ap.Max {
			// Wrap into the footprint, preserving the walk's phase.
			off := (uint64(int64(st.last-ap.Min) + delta)) % span
			next = ap.Min + off&^7
		}
	}
	st.last = next
	return next
}
