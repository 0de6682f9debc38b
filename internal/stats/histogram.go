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
// A histogram has two lives. While it is being built it starts sparse:
// vals holds its non-empty (count, value) pairs, in no fixed order — a
// hit moves its pair one place toward the front when its count passes
// its neighbour's, so the common values are found first. Once its
// support passes sparseMax it promotes to counts, a dense array indexed
// by value, and vals is dropped.
//
// Freeze (or the first Sample) turns it into its sampling table and
// drops the rest: vals then holds (cumulative count, value) entries in
// increasing value order, and guide a table giving O(1)-expected
// lookups with the same inverse-CDF (u → value) mapping as a linear or
// binary search over the counts (see AliasTable for the soundness
// argument; the guide here is the same construction). A histogram with
// a single value keeps just that value, in one, with no entries and no
// guide. Every read serves a frozen histogram from its table — a value's
// count is the difference of two cumulative counts — and writes
// nothing, so frozen histograms can be read from many goroutines at
// once. The next Add or Merge thaws it first, back to sorted pairs or
// dense counts. Profiling mutates histograms heavily and never samples;
// synthesis samples heavily and never mutates.
//
// Every read that walks the values visits them in increasing order,
// whichever form holds them, so the answers, the byte form and the
// draws depend neither on the form nor on the pairs' order.
type Histogram struct {
	Max    int
	total  uint64
	vals   []histEntry
	counts []uint64
	guide  []int32
	one    int32 // the value of a frozen single-value histogram, else 0
	gshift uint8
	frozen bool
}

// histEntry is one non-empty value with a count: its own count in an
// unfrozen histogram's pairs, the cumulative count up to and including
// it in a frozen histogram's entries. The entries are one slice of
// (count, value) structs rather than parallel slices so one sample
// touches one or two cache lines instead of four.
type histEntry struct {
	n   uint64
	val int32
}

func cmpEntry(a, b histEntry) int { return int(a.val) - int(b.val) }

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
	if h.frozen {
		h.thaw()
	}
	h.total += n
	if h.counts != nil {
		h.counts[v] += n
		return
	}
	ps := h.vals
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
		h.vals = append(ps, histEntry{n: n, val: int32(v)})
		return
	}
	h.counts = make([]uint64, h.Max+1)
	for _, p := range ps {
		h.counts[p.val] = p.n
	}
	h.counts[v] = n
	h.vals = nil
}

// thaw turns a frozen histogram back into the form profiling gives it:
// sorted pairs, rewritten in place from the entries, or dense counts
// past sparseMax values.
func (h *Histogram) thaw() {
	switch {
	case h.one != 0:
		h.vals = []histEntry{{n: h.total, val: h.one}}
	case len(h.vals) > sparseMax:
		counts := make([]uint64, h.Max+1)
		h.each(func(v int, n uint64) bool {
			counts[v] = n
			return true
		})
		h.vals, h.counts = nil, counts
	default:
		for i := len(h.vals) - 1; i > 0; i-- {
			h.vals[i].n -= h.vals[i-1].n
		}
	}
	h.one, h.guide, h.gshift, h.frozen = 0, nil, 0, false
}

// each calls f on every non-empty value in increasing order with its
// count, until f returns false. It writes nothing to h: a frozen
// histogram's counts are differences of its cumulative entries, and
// unsorted sparse pairs are sorted in a copy on the stack.
func (h *Histogram) each(f func(v int, n uint64) bool) {
	switch {
	case h.one != 0:
		f(int(h.one), h.total)
	case h.counts != nil:
		for v, n := range h.counts {
			if n != 0 && !f(v, n) {
				return
			}
		}
	case h.frozen:
		var prev uint64
		for _, e := range h.vals {
			if !f(int(e.val), e.n-prev) {
				return
			}
			prev = e.n
		}
	default:
		ps := h.vals
		var buf [sparseMax]histEntry
		if !slices.IsSortedFunc(ps, cmpEntry) {
			ps = buf[:copy(buf[:], ps)]
			slices.SortFunc(ps, cmpEntry)
		}
		for _, p := range ps {
			if !f(int(p.val), p.n) {
				return
			}
		}
	}
}

// support returns the number of non-empty values.
func (h *Histogram) support() int {
	switch {
	case h.one != 0:
		return 1
	case h.counts == nil:
		return len(h.vals)
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
	var c uint64
	h.each(func(x int, n uint64) bool {
		if x == v {
			c = n
		}
		return x < v
	})
	return c
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
// bit-identically by the alias-table fast path (see AliasTable); a
// single-value histogram returns its value without reading u.
func (h *Histogram) Sample(u float64) int {
	if h.total == 0 {
		panic("stats: sampling empty histogram")
	}
	if !h.frozen {
		h.buildCum()
	}
	if h.one != 0 {
		return int(h.one)
	}
	target := uint64(u * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	i := h.guide[target>>h.gshift]
	for h.vals[i].n <= target {
		i++
	}
	return int(h.vals[i].val)
}

// buildCum freezes a non-empty histogram: it builds the sampling table
// from the pairs (sorted in place first) or the dense counts, then
// drops them.
func (h *Histogram) buildCum() {
	if h.counts == nil {
		slices.SortFunc(h.vals, cmpEntry)
	}
	n := h.support()
	if n == 1 {
		h.each(func(v int, _ uint64) bool {
			h.one = int32(v)
			return false
		})
		h.vals, h.counts, h.frozen = nil, nil, true
		return
	}
	entries := make([]histEntry, 0, n)
	var run uint64
	h.each(func(v int, c uint64) bool {
		run += c
		entries = append(entries, histEntry{n: run, val: int32(v)})
		return true
	})
	// Guide construction mirrors NewAliasTable: bucket j holds the first
	// entry whose cumulative count exceeds j<<gshift, with the bucket
	// width widened until the guide is at most ~2x the entry count.
	var shift uint8
	for h.total>>shift > uint64(2*n) {
		shift++
	}
	nb := int((h.total-1)>>shift) + 1
	guide := make([]int32, nb)
	var gi int32
	for j := 0; j < nb; j++ {
		start := uint64(j) << shift
		for entries[gi].n <= start {
			gi++
		}
		guide[j] = gi
	}
	h.vals, h.counts, h.guide, h.gshift, h.frozen = entries, nil, guide, shift, true
}

// Freeze turns the histogram into its sampling table (see Histogram). A
// frozen histogram can be read and sampled from many goroutines at
// once: Sample's lazy build is its only write, so once the table exists
// every read is read-only. Freeze on an empty or frozen histogram does
// nothing, and any later Add/Merge thaws the histogram (profiling and
// sampling phases never overlap in this framework).
func (h *Histogram) Freeze() {
	if h.total != 0 && !h.frozen {
		h.buildCum()
	}
}

// ContainsFunc reports whether some value Sample can return — a value
// with a non-zero count — satisfies f. It visits those values in
// increasing order, stops at the first that does, and reads them from
// the sampling table in place: like Sample, it freezes the histogram if
// it is not frozen, and it never writes once it is.
func (h *Histogram) ContainsFunc(f func(v int) bool) bool {
	h.Freeze()
	if h.one != 0 {
		return f(int(h.one))
	}
	for _, e := range h.vals {
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
