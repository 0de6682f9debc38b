package stats

import "slices"

// MaxDependencyDistance bounds the dependency-distance distributions
// recorded during statistical profiling. The paper (§2.1.1) limits the
// distribution to 512 entries, "which still allows the modeling of a
// wide range of current and near-future microprocessors": any RAW
// dependency further away than the largest plausible instruction window
// never stalls issue, so clamping it loses no timing information.
const MaxDependencyDistance = 512

// sparseMax is the support size past which a histogram promotes from
// its sparse (value, count) pairs to a dense array of Max+1 counts.
// Most dependency-distance histograms stay far below it (gcc's median
// support is 1); those that pass it are the wide ones, where the linear
// search per Add would cost more than the array's memory.
const sparseMax = 32

// Histogram is a bounded integer histogram over [1, Max]. Values larger
// than Max are clamped to Max; values < 1 are rejected. It is the
// storage format for dependency-distance distributions in the
// statistical flow graph.
//
// A histogram starts sparse: pairs holds its non-empty (value, count)
// pairs, in no fixed order while it is being built — a hit moves its
// pair one place toward the front when its count passes its
// neighbour's, so the common values are found first. Once its support
// passes sparseMax it promotes to counts, a dense array indexed by
// value, and pairs is dropped. Every read that walks the values visits
// them in increasing order, whichever form holds them, so the answers,
// the byte form and the draws depend on neither the form nor the
// pairs' order.
type Histogram struct {
	Max    int
	total  uint64
	pairs  []histPair
	counts []uint64

	// Sampling cache over the non-empty values, rebuilt lazily after
	// mutation: interleaved (cumulative count, value) entries in
	// increasing value order plus a guide table giving O(1)-expected
	// lookups with the same inverse-CDF (u → value) mapping as a linear
	// or binary search over the counts (see AliasTable for the
	// soundness argument; the guide here is the same construction). The
	// entries are interleaved rather than parallel slices so one sample
	// touches one or two cache lines instead of four. Profiling mutates
	// histograms heavily and never samples; synthesis samples heavily
	// and never mutates — the cache serves the latter without taxing
	// the former.
	entries []histEntry
	guide   []int32
	gshift  uint
}

// histPair is one non-empty value of a sparse histogram and its count.
type histPair struct {
	n   uint64
	val int32
}

func cmpPair(a, b histPair) int { return int(a.val) - int(b.val) }

// histEntry pairs a cumulative count with its bucket value.
type histEntry struct {
	cum uint64
	val int32
}

// NewHistogram returns an empty histogram over [1, max].
func NewHistogram(max int) *Histogram {
	if max < 1 {
		panic("stats: histogram max must be >= 1")
	}
	return &Histogram{Max: max}
}

// Add records one observation of v. Values above Max are clamped to Max,
// matching the paper's bounded dependency distribution; non-positive
// values panic since a RAW distance is at least 1.
func (h *Histogram) Add(v int) {
	if v < 1 {
		panic("stats: histogram value must be >= 1")
	}
	if v > h.Max {
		v = h.Max
	}
	h.add(v, 1)
}

// AddN records n observations of v.
func (h *Histogram) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	if v < 1 {
		panic("stats: histogram value must be >= 1")
	}
	if v > h.Max {
		v = h.Max
	}
	h.add(v, n)
}

// add records n observations of v, a value in [1, Max]. (Add stays
// small enough to inline; this is its one call.)
func (h *Histogram) add(v int, n uint64) {
	h.total += n
	h.invalidate()
	if h.counts != nil {
		h.counts[v] += n
		return
	}
	ps := h.pairs
	for i := range ps {
		if int(ps[i].val) == v {
			ps[i].n += n
			if i > 0 && ps[i].n > ps[i-1].n {
				ps[i-1], ps[i] = ps[i], ps[i-1]
			}
			return
		}
	}
	if len(ps) < sparseMax {
		h.pairs = append(ps, histPair{n: n, val: int32(v)})
		return
	}
	h.counts = make([]uint64, h.Max+1)
	for _, p := range ps {
		h.counts[p.val] = p.n
	}
	h.counts[v] = n
	h.pairs = nil
}

func (h *Histogram) invalidate() {
	// Skip the pointer stores (and their write barriers) when there is
	// no cache to drop — the overwhelmingly common case, since profiling
	// mutates millions of times before anything ever samples.
	if h.entries != nil {
		h.entries, h.guide = nil, nil
	}
}

// each calls f on every non-empty value in increasing order with its
// count, until f returns false. It writes nothing to h: unsorted sparse
// pairs are sorted in a copy on the stack. buildCum sorts the pairs in
// place before it sets entries, and every mutation clears entries, so
// a frozen histogram's pairs are read directly.
func (h *Histogram) each(f func(v int, n uint64) bool) {
	if h.counts != nil {
		for v, n := range h.counts {
			if n != 0 && !f(v, n) {
				return
			}
		}
		return
	}
	ps := h.pairs
	var buf [sparseMax]histPair
	if h.entries == nil && !slices.IsSortedFunc(ps, cmpPair) {
		ps = buf[:copy(buf[:], ps)]
		slices.SortFunc(ps, cmpPair)
	}
	for _, p := range ps {
		if !f(int(p.val), p.n) {
			return
		}
	}
}

// support returns the number of non-empty values.
func (h *Histogram) support() int {
	if h.counts == nil {
		return len(h.pairs)
	}
	n := 0
	for _, c := range h.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the number of observations equal to v (after clamping).
func (h *Histogram) Count(v int) uint64 {
	if v < 1 {
		return 0
	}
	if v > h.Max {
		v = h.Max
	}
	if h.counts != nil {
		return h.counts[v]
	}
	for _, p := range h.pairs {
		if int(p.val) == v {
			return p.n
		}
	}
	return 0
}

// Mean returns the mean observation, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	h.each(func(v int, n uint64) bool {
		sum += float64(v) * float64(n)
		return true
	})
	return sum / float64(h.total)
}

// Sample draws a value from the empirical distribution using u, a
// uniform variate in [0,1). It panics on an empty histogram. The
// (u → value) mapping is the inverse-CDF transform, preserved
// bit-identically by the alias-table fast path (see AliasTable).
func (h *Histogram) Sample(u float64) int {
	if h.total == 0 {
		panic("stats: sampling empty histogram")
	}
	if h.entries == nil {
		h.buildCum()
	}
	target := uint64(u * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	i := h.guide[target>>h.gshift]
	for h.entries[i].cum <= target {
		i++
	}
	return int(h.entries[i].val)
}

// buildCum sorts the sparse pairs in place and builds the sampling
// cache from them.
func (h *Histogram) buildCum() {
	if h.counts == nil {
		slices.SortFunc(h.pairs, cmpPair)
	}
	n := h.support()
	entries := make([]histEntry, 0, n)
	var run uint64
	h.each(func(v int, c uint64) bool {
		run += c
		entries = append(entries, histEntry{cum: run, val: int32(v)})
		return true
	})
	// Guide construction mirrors NewAliasTable: bucket j holds the first
	// entry whose cumulative count exceeds j<<gshift, with the bucket
	// width widened until the guide is at most ~2x the entry count.
	var shift uint
	for h.total>>shift > uint64(2*n) {
		shift++
	}
	nb := int((h.total-1)>>shift) + 1
	guide := make([]int32, nb)
	var gi int32
	for j := 0; j < nb; j++ {
		start := uint64(j) << shift
		for entries[gi].cum <= start {
			gi++
		}
		guide[j] = gi
	}
	h.entries, h.guide, h.gshift = entries, guide, shift
}

// Freeze eagerly builds the cumulative sampling cache. A frozen
// histogram can be sampled from many goroutines at once: Sample's lazy
// cache build is its only write, so once the cache exists every Sample
// call is read-only. Any later Add/Merge un-freezes the histogram
// (profiling and sampling phases never overlap in this framework).
func (h *Histogram) Freeze() {
	if h.total != 0 && h.entries == nil {
		h.buildCum()
	}
}

// ContainsFunc reports whether some value Sample can return — a value
// with a non-zero count — satisfies f. It visits those values in
// increasing order, stops at the first that does, and reads them from
// the sampling cache in place: like Sample, it builds the cache if the
// histogram is not frozen, and it never writes once it is.
func (h *Histogram) ContainsFunc(f func(v int) bool) bool {
	h.Freeze()
	for _, e := range h.entries {
		if f(int(e.val)) {
			return true
		}
	}
	return false
}

// Quantile returns the smallest value v such that at least fraction q of
// the mass lies at or below v. q is clamped to [0,1].
func (h *Histogram) Quantile(q float64) int {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.total))
	v := h.Max
	var cum uint64
	h.each(func(x int, n uint64) bool {
		cum += n
		if cum >= target {
			v = x
			return false
		}
		return true
	})
	return v
}

// Merge adds all observations from o into h. The histograms must have
// the same bound.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if o.Max != h.Max {
		panic("stats: merging histograms with different bounds")
	}
	o.each(func(v int, n uint64) bool {
		h.add(v, n)
		return true
	})
}

// Clone returns a deep copy of h.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogram(h.Max)
	c.Merge(h)
	return c
}
