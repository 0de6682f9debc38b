package stats

// MaxDependencyDistance bounds the dependency-distance distributions
// recorded during statistical profiling. The paper (§2.1.1) limits the
// distribution to 512 entries, "which still allows the modeling of a
// wide range of current and near-future microprocessors": any RAW
// dependency further away than the largest plausible instruction window
// never stalls issue, so clamping it loses no timing information.
const MaxDependencyDistance = 512

// Histogram is a bounded integer histogram over [1, Max]. Values larger
// than Max are clamped to Max; values < 1 are rejected. It is the
// storage format for dependency-distance distributions in the
// statistical flow graph.
type Histogram struct {
	Max    int
	counts []uint64
	total  uint64

	// Sparse sampling cache over the non-empty buckets, rebuilt lazily
	// after mutation: interleaved (cumulative count, value) entries plus
	// a guide table giving O(1)-expected lookups with the same
	// inverse-CDF (u → value) mapping as a linear or binary search over
	// the raw counts (see AliasTable for the soundness argument; the
	// guide here is the same construction). The entries are interleaved
	// rather than parallel slices so one sample touches one or two cache
	// lines instead of four. Profiling mutates histograms heavily and
	// never samples; synthesis samples heavily and never mutates — the
	// cache serves the latter without taxing the former.
	entries []histEntry
	guide   []int32
	gshift  uint
}

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
	if h.counts == nil {
		h.counts = make([]uint64, h.Max+1)
	}
	h.counts[v]++
	h.total++
	h.invalidate()
}

func (h *Histogram) invalidate() {
	// Skip the pointer stores (and their write barriers) when there is
	// no cache to drop — the overwhelmingly common case, since profiling
	// mutates millions of times before anything ever samples.
	if h.entries != nil {
		h.entries, h.guide = nil, nil
	}
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
	if h.counts == nil {
		h.counts = make([]uint64, h.Max+1)
	}
	h.counts[v] += n
	h.total += n
	h.invalidate()
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the number of observations equal to v (after clamping).
func (h *Histogram) Count(v int) uint64 {
	if h.counts == nil || v < 1 {
		return 0
	}
	if v > h.Max {
		v = h.Max
	}
	return h.counts[v]
}

// Mean returns the mean observation, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
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

func (h *Histogram) buildCum() {
	n := 0
	for _, c := range h.counts {
		if c != 0 {
			n++
		}
	}
	entries := make([]histEntry, 0, n)
	var run uint64
	for v, c := range h.counts {
		if c == 0 {
			continue
		}
		run += c
		entries = append(entries, histEntry{cum: run, val: int32(v)})
	}
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
	var cum uint64
	for v, c := range h.counts {
		cum += c
		if cum >= target && c > 0 {
			return v
		}
	}
	return h.Max
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
	if h.counts == nil {
		h.counts = make([]uint64, h.Max+1)
	}
	for v, c := range o.counts {
		h.counts[v] += c
	}
	h.total += o.total
	h.invalidate()
}

// Clone returns a deep copy of h.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogram(h.Max)
	c.Merge(h)
	return c
}
