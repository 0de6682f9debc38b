package sfg

import "slices"

// AddrProfile captures the address-generation behaviour of one memory
// instruction slot, enabling the synthetic-address extension: instead
// of only assigning hit/miss outcomes for the structures that were
// profiled (§2.1.2's pragmatic approach), a synthetic trace can carry
// synthetic *addresses* whose stride and footprint statistics match the
// original, so caches can be simulated live on the synthetic trace and
// the cache design space explored without re-profiling.
//
// The model is deliberately simple: a bounded table of successive
// address deltas for the slot, plus its footprint bounds. Slots with
// more distinct deltas than the bound are treated as uniformly random
// within their observed footprint — which is exactly how the workload
// substrate's MemRandom slots behave, and a conservative approximation
// for anything else.
type AddrProfile struct {
	Count uint64 // dynamic instances observed
	First uint64 // first address observed
	Min   uint64 // footprint lower bound (inclusive)
	Max   uint64 // footprint upper bound (inclusive)

	// Strides is the stride table: the signed address deltas between
	// consecutive instances with their occurrence counts, in increasing
	// delta order, at most MaxDistinctStrides entries.
	Strides []Stride
	// Overflow counts deltas that arrived after the table filled and
	// were not already in it (the slot is then mostly random).
	Overflow uint64

	prev uint64 // profiling state, not serialised
	// full is a membership filter over a full table's deltas, built
	// when the table fills and dropped by Graph.Freeze.
	full *strideFilter
}

// Stride is one entry of a stride table: an address delta and how many
// times it occurred.
type Stride struct {
	Delta int64
	Count uint64
}

// MaxDistinctStrides bounds the per-slot stride table; beyond it a slot
// is modelled as random within its footprint.
const MaxDistinctStrides = 64

// observe records the next address of the slot.
func (a *AddrProfile) observe(addr uint64) {
	a.Count++
	if a.Count == 1 {
		a.First, a.Min, a.Max = addr, addr, addr
	} else {
		if addr < a.Min {
			a.Min = addr
		}
		if addr > a.Max {
			a.Max = addr
		}
		a.addStride(int64(addr) - int64(a.prev))
	}
	a.prev = addr
}

// addStride counts one occurrence of delta d. Below MaxDistinctStrides
// entries every delta is admitted; a full table counts a delta it does
// not hold as overflow. Full tables see mostly new random deltas, so
// their filter rejects most of those with one bit test before any
// search.
func (a *AddrProfile) addStride(d int64) {
	if len(a.Strides) == MaxDistinctStrides {
		if a.full == nil {
			a.full = newStrideFilter(a.Strides)
		}
		if !a.full.has(d) {
			a.Overflow++
			return
		}
	}
	i, ok := a.find(d)
	switch {
	case ok:
		a.Strides[i].Count++
	case len(a.Strides) < MaxDistinctStrides:
		a.Strides = slices.Insert(a.Strides, i, Stride{Delta: d, Count: 1})
	default:
		a.Overflow++
	}
}

// find returns the position of delta d in the stride table, or where it
// would go, and whether it is there. It runs once per profiled memory
// access, so the search is written out rather than calling a comparator
// per probe.
func (a *AddrProfile) find(d int64) (int, bool) {
	s := a.Strides
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m].Delta < d {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s) && s[lo].Delta == d
}

// freeze trims the stride table to its length and drops the filter.
// On a frozen profile it writes nothing.
func (a *AddrProfile) freeze() {
	if cap(a.Strides) > len(a.Strides) {
		a.Strides = append(make([]Stride, 0, len(a.Strides)), a.Strides...)
	}
	if a.full != nil {
		a.full = nil
	}
}

// strideFilter is a 1,024-bit membership filter over the deltas of a
// full stride table: a delta whose bit is clear is not in the table. A
// full table admits no new delta, so its filter never goes stale.
type strideFilter [16]uint64

func newStrideFilter(s []Stride) *strideFilter {
	f := new(strideFilter)
	for _, x := range s {
		b := strideBit(x.Delta)
		f[b>>6] |= 1 << (b & 63)
	}
	return f
}

func (f *strideFilter) has(d int64) bool {
	b := strideBit(d)
	return f[b>>6]&(1<<(b&63)) != 0
}

// strideBit hashes a delta to one of the filter's 1,024 bits
// (Fibonacci hashing: the top ten bits of the product).
func strideBit(d int64) uint64 { return uint64(d) * 0x9e3779b97f4a7c15 >> 54 }

// MostlyRandom reports whether the slot's deltas overflowed the stride
// table badly enough that random-within-footprint is the better model.
func (a *AddrProfile) MostlyRandom() bool {
	var tracked uint64
	for _, s := range a.Strides {
		tracked += s.Count
	}
	return a.Overflow > tracked/4
}
