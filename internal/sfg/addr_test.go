package sfg

import (
	"slices"
	"testing"
)

// refAddr is the reference FuzzAddrProfile checks AddrProfile against:
// the stride table as a map, observed and merged the way the map-based
// profile did, with a sorted key walk wherever order matters.
type refAddr struct {
	count, first, min, max, overflow, prev uint64
	strides                                map[int64]uint64
}

func (r *refAddr) observe(addr uint64) {
	r.count++
	if r.count == 1 {
		r.first, r.min, r.max = addr, addr, addr
	} else {
		r.min, r.max = min(r.min, addr), max(r.max, addr)
		delta := int64(addr) - int64(r.prev)
		if _, ok := r.strides[delta]; ok || len(r.strides) < MaxDistinctStrides {
			r.strides[delta]++
		} else {
			r.overflow++
		}
	}
	r.prev = addr
}

func (r *refAddr) merge(o *refAddr) {
	if o.count == 0 {
		return
	}
	if r.count == 0 {
		r.first, r.min, r.max = o.first, o.min, o.max
	} else {
		r.min, r.max = min(r.min, o.min), max(r.max, o.max)
	}
	r.count += o.count
	r.overflow += o.overflow
	for _, s := range o.table() {
		if _, ok := r.strides[s.Delta]; ok || len(r.strides) < MaxDistinctStrides {
			r.strides[s.Delta] += s.Count
		} else {
			r.overflow += s.Count
		}
	}
}

// table is the map as a stride table in increasing delta order.
func (r *refAddr) table() []Stride {
	var t []Stride
	for d, c := range r.strides {
		t = append(t, Stride{Delta: d, Count: c})
	}
	slices.SortFunc(t, func(a, b Stride) int {
		switch {
		case a.Delta < b.Delta:
			return -1
		case a.Delta > b.Delta:
			return 1
		}
		return 0
	})
	return t
}

func (r *refAddr) mostlyRandom() bool {
	var tracked uint64
	for _, c := range r.strides {
		tracked += c
	}
	return r.overflow > tracked/4
}

func checkAddr(t *testing.T, step int, name string, a *AddrProfile, r *refAddr) {
	t.Helper()
	if a.Count != r.count || a.Min != r.min || a.Max != r.max || a.First != r.first || a.Overflow != r.overflow {
		t.Fatalf("step %d: %s count/first/min/max/overflow %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d", step, name,
			a.Count, a.First, a.Min, a.Max, a.Overflow, r.count, r.first, r.min, r.max, r.overflow)
	}
	if want := r.table(); !slices.Equal(a.Strides, want) {
		t.Fatalf("step %d: %s strides %v, reference %v", step, name, a.Strides, want)
	}
	if a.MostlyRandom() != r.mostlyRandom() {
		t.Fatalf("step %d: %s MostlyRandom %v, reference %v", step, name, a.MostlyRandom(), r.mostlyRandom())
	}
}

// FuzzAddrProfile drives two stride tables and their map-based
// references through the same address streams: repeated and negative
// small deltas, wide deltas that fill a table past MaxDistinctStrides,
// merges of one into the other at and below capacity, and freezes
// between observations (which drop the full table's filter, so the
// next observation builds it again). After every step it compares the
// scalar fields, the table and MostlyRandom.
func FuzzAddrProfile(f *testing.F) {
	steps := func(ss ...[2]int) []byte {
		var b []byte
		for _, s := range ss {
			b = append(b, byte(s[0]), byte(s[1]), byte(s[1]>>8))
		}
		return b
	}
	var fill [][2]int
	for i := 0; i < 2*MaxDistinctStrides; i++ {
		fill = append(fill, [2]int{1, i * 37}, [2]int{0, 1}, [2]int{2, i * 53})
	}
	f.Add(steps(fill...))
	f.Add(steps(append(fill[:3*MaxDistinctStrides+9:3*MaxDistinctStrides+9],
		[2]int{3, 0}, [2]int{3, 1}, [2]int{0, 0xfe}, [2]int{1, 7}, [2]int{3, 0})...))
	f.Add(steps([2]int{0, 0xf8}, [2]int{0, 0xf8}, [2]int{0, 8}, [2]int{2, 0x10}, [2]int{2, 0xf0},
		[2]int{3, 0}, [2]int{3, 1}, [2]int{0, 8}))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var a, b AddrProfile
		ra, rb := &refAddr{strides: map[int64]uint64{}}, &refAddr{strides: map[int64]uint64{}}
		addrA, addrB := uint64(1<<32), uint64(1<<40)
		for step := 1; len(ops) >= 3 && step <= 600; step++ {
			op, x := ops[0], int(ops[1])|int(ops[2])<<8
			ops = ops[3:]
			// Small deltas repeat and go negative; wide ones rarely
			// repeat, so a table fills and overflows.
			small, wide := int64(int8(x))*8, int64(int16(x))*24
			switch op % 4 {
			case 0:
				addrA += uint64(small)
				a.observe(addrA)
				ra.observe(addrA)
			case 1:
				addrA += uint64(wide)
				a.observe(addrA)
				ra.observe(addrA)
			case 2:
				d := small
				if x&0x100 != 0 {
					d = wide
				}
				addrB += uint64(d)
				b.observe(addrB)
				rb.observe(addrB)
			case 3:
				if x&1 == 0 {
					a.Merge(&b)
					ra.merge(rb)
				} else {
					a.freeze()
				}
			}
			checkAddr(t, step, "a", &a, ra)
			checkAddr(t, step, "b", &b, rb)
		}
	})
}
