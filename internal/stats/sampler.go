package stats

// WeightedSampler draws indices in proportion to dynamically updatable
// non-negative integer weights. Selection and weight updates are
// O(log n) via a Fenwick (binary indexed) tree.
//
// The synthetic-trace generator uses it twice: once over SFG node
// occurrences (which are decremented as nodes are consumed, step 2 of
// the §2.2 algorithm) and once, statically, over outgoing-edge
// transition counts.
type WeightedSampler struct {
	tree  []uint64 // 1-based Fenwick tree of weights
	w     []uint64 // current weight per index
	total uint64
}

// NewWeightedSampler builds a sampler over the given weights.
func NewWeightedSampler(weights []uint64) *WeightedSampler {
	s := &WeightedSampler{
		tree: make([]uint64, len(weights)+1),
		w:    make([]uint64, len(weights)),
	}
	for i, w := range weights {
		if w != 0 {
			s.add(i, w)
			s.w[i] = w
		}
	}
	return s
}

func (s *WeightedSampler) add(i int, delta uint64) {
	s.total += delta
	for j := i + 1; j < len(s.tree); j += j & (-j) {
		s.tree[j] += delta
	}
}

func (s *WeightedSampler) sub(i int, delta uint64) {
	s.total -= delta
	for j := i + 1; j < len(s.tree); j += j & (-j) {
		s.tree[j] -= delta
	}
}

// Total returns the sum of all current weights.
func (s *WeightedSampler) Total() uint64 { return s.total }

// Weight returns the current weight of index i.
func (s *WeightedSampler) Weight(i int) uint64 { return s.w[i] }

// Sample maps a uniform variate u in [0,1) to an index drawn with
// probability proportional to its weight. It panics when all weights
// are zero.
func (s *WeightedSampler) Sample(u float64) int {
	if s.total == 0 {
		panic("stats: sampling from empty WeightedSampler")
	}
	target := uint64(u * float64(s.total))
	if target >= s.total {
		target = s.total - 1
	}
	// Fenwick tree descent: find smallest index with cumulative
	// weight > target.
	idx := 0
	bit := 1
	for bit<<1 <= len(s.tree)-1 {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next < len(s.tree) && s.tree[next] <= target {
			idx = next
			target -= s.tree[next]
		}
	}
	return idx // idx is 0-based index of selected element
}

// Decrement reduces the weight of index i by one, saturating at zero.
// It reports whether the weight was positive before the call.
func (s *WeightedSampler) Decrement(i int) bool {
	if s.w[i] == 0 {
		return false
	}
	s.w[i]--
	s.sub(i, 1)
	return true
}

// CDF is an immutable cumulative distribution over [0, n) built once
// from weights; Sample is O(1) expected via an alias (guide) table that
// preserves the inverse-CDF (u → index) mapping bit-identically. It is
// cheaper than WeightedSampler when weights never change (e.g. edge
// transition probabilities).
type CDF struct {
	cum  []uint64
	samp *AliasTable
}

// NewCDF builds a CDF from the given weights.
func NewCDF(weights []uint64) *CDF {
	cum := make([]uint64, len(weights))
	var t uint64
	for i, w := range weights {
		t += w
		cum[i] = t
	}
	c := &CDF{cum: cum}
	if t != 0 {
		c.samp = NewAliasTable(cum)
	}
	return c
}

// Total returns the total weight.
func (c *CDF) Total() uint64 {
	if len(c.cum) == 0 {
		return 0
	}
	return c.cum[len(c.cum)-1]
}

// Sample maps a uniform variate u in [0,1) to an index. It panics when
// the total weight is zero.
func (c *CDF) Sample(u float64) int {
	if c.samp == nil {
		panic("stats: sampling from empty CDF")
	}
	return c.samp.Sample(u)
}
