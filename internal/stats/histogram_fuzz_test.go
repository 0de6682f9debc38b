package stats

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// denseModel is the reference a Histogram is checked against: a plain
// count per value, read the way the dense-array histogram read itself.
type denseModel []uint64

func (m denseModel) total() uint64 {
	var t uint64
	for _, c := range m {
		t += c
	}
	return t
}

func (m denseModel) mean() float64 {
	t := m.total()
	if t == 0 {
		return 0
	}
	var sum float64
	for v, c := range m {
		sum += float64(v) * float64(c)
	}
	return sum / float64(t)
}

func (m denseModel) quantile(q float64) int {
	t := m.total()
	if t == 0 {
		return 0
	}
	target := uint64(q * float64(t))
	var cum uint64
	for v, c := range m {
		cum += c
		if cum >= target && c > 0 {
			return v
		}
	}
	return len(m) - 1
}

// sample is the inverse-CDF transform over the counts.
func (m denseModel) sample(u float64) int {
	t := m.total()
	target := uint64(u * float64(t))
	if target >= t {
		target = t - 1
	}
	var cum uint64
	for v, c := range m {
		if cum += c; cum > target {
			return v
		}
	}
	panic("unreachable")
}

func (m denseModel) support() []int {
	var vs []int
	for v, c := range m {
		if c != 0 {
			vs = append(vs, v)
		}
	}
	return vs
}

func (m denseModel) encode() []byte {
	b := binary.AppendUvarint(nil, uint64(len(m)-1))
	vs := m.support()
	b = binary.AppendUvarint(b, uint64(len(vs)))
	prev := 0
	for _, v := range vs {
		b = binary.AppendUvarint(b, uint64(v-prev))
		b = binary.AppendUvarint(b, m[v])
		prev = v
	}
	return b
}

func (m denseModel) add(v int, n uint64) {
	m[min(v, len(m)-1)] += n
}

// checkAgainstModel compares every read of h with the model. It reads h
// as it is first (unfrozen if the steps left it so), then samples a
// clone, so the caller's steps alone decide whether h is frozen.
func checkAgainstModel(t *testing.T, step int, h *Histogram, m denseModel) {
	t.Helper()
	max := len(m) - 1
	if h.Total() != m.total() {
		t.Fatalf("step %d: Total %d, model %d", step, h.Total(), m.total())
	}
	// A frozen histogram is its sampling table and nothing else: its
	// single value inline, or cumulative entries with a guide.
	if h.frozen {
		single := len(m.support()) == 1
		if h.counts != nil || (h.one != 0) != single || (h.vals == nil) != single || (h.guide == nil) != single {
			t.Fatalf("step %d: frozen histogram keeps more than its table (one %d, %d entries, %d counts, %d guide)",
				step, h.one, len(h.vals), len(h.counts), len(h.guide))
		}
	}
	for v := -1; v <= max+2; v++ {
		want := uint64(0)
		if v >= 1 {
			want = m[min(v, max)]
		}
		if got := h.Count(v); got != want {
			t.Fatalf("step %d: Count(%d) = %d, model %d", step, v, got, want)
		}
	}
	if got, want := h.Mean(), m.mean(); got != want {
		t.Fatalf("step %d: Mean %v, model %v", step, got, want)
	}
	for i := 0; i <= 32; i++ {
		q := float64(i) / 32
		if got, want := h.Quantile(q), m.quantile(q); got != want {
			t.Fatalf("step %d: Quantile(%v) = %d, model %d", step, q, got, want)
		}
	}
	want := m.encode()
	got, err := h.AppendBinary(nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("step %d: AppendBinary % x (%v), model % x", step, got, err, want)
	}
	dec, n, err := DecodeHistogram(got)
	if err != nil || n != len(got) {
		t.Fatalf("step %d: decode read %d of %d bytes: %v", step, n, len(got), err)
	}
	if re, _ := dec.AppendBinary(nil); !bytes.Equal(re, want) || dec.Total() != m.total() || dec.Mean() != m.mean() {
		t.Fatalf("step %d: decoded histogram differs from the model", step)
	}

	c := h.Clone()
	var visited []int
	c.ContainsFunc(func(v int) bool { visited = append(visited, v); return false })
	if s := m.support(); !slices.Equal(visited, s) {
		t.Fatalf("step %d: ContainsFunc visits %v, model support %v", step, visited, s)
	}
	if m.total() != 0 {
		for i := 0; i < 64; i++ {
			u := float64(i) / 64
			if got, want := c.Sample(u), m.sample(u); got != want {
				t.Fatalf("step %d: Sample(%v) = %d, model %d", step, u, got, want)
			}
			if got, want := dec.Sample(u), m.sample(u); got != want {
				t.Fatalf("step %d: decoded Sample(%v) = %d, model %d", step, u, got, want)
			}
		}
	}
	if frozen, err := c.AppendBinary(nil); err != nil || !bytes.Equal(frozen, want) {
		t.Fatalf("step %d: frozen AppendBinary % x (%v), model % x", step, frozen, err, want)
	}
}

// fuzzMaxes are the bounds FuzzHistogram picks from: the smallest, one
// that cannot hold more values than a sparse histogram, ones either side
// of the promotion point, and the paper's dependency bound.
var fuzzMaxes = [...]int{1, 7, sparseMax, sparseMax + 1, 200, MaxDependencyDistance}

// histOps encodes FuzzHistogram steps: an opcode and a two-byte value
// each.
func histOps(steps ...[2]int) []byte {
	var b []byte
	for _, s := range steps {
		b = append(b, byte(s[0]), byte(s[1]), byte(s[1]>>8))
	}
	return b
}

// FuzzHistogram drives a Histogram and a dense reference model through
// the same sequence of Add, AddN, Merge, Clone and Freeze steps and
// compares every read after each one. Values run up to Max+8, so
// clamping is crossed, and on the larger bounds a sequence can pass the
// sparse histogram's promotion to a dense array. Freezes of h and of
// the merge source interleave with the mutations that thaw them, and
// one step reads h frozen and then again after the Add that thaws it,
// so every read is checked on both sides of a thaw — for single-value,
// sparse and promoted histograms alike.
func FuzzHistogram(f *testing.F) {
	var wide [][2]int
	for v := 1; v <= 2*sparseMax; v++ {
		wide = append(wide, [2]int{0, v * 3})
	}
	f.Add(uint8(5), histOps(wide...))
	f.Add(uint8(3), histOps(append(wide[:sparseMax+3:sparseMax+3], [2]int{4, 0}, [2]int{0, 9})...))
	f.Add(uint8(2), histOps([2]int{0, 3}, [2]int{1, 300}, [2]int{0, 3}, [2]int{3, 2}, [2]int{3, 70},
		[2]int{2, 0}, [2]int{4, 0}, [2]int{0, 1}, [2]int{5, 0}, [2]int{2, 0}))
	f.Add(uint8(0), histOps([2]int{0, 1}, [2]int{0, 5}, [2]int{4, 0}, [2]int{1, 0x0203}))
	f.Add(uint8(1), histOps([2]int{0, 2}, [2]int{0, 4}, [2]int{0, 2}, [2]int{0, 9}, [2]int{4, 0}, [2]int{0, 4}))
	// A single value frozen, thawed by its own value and by another, and
	// a frozen single-value source merged in.
	f.Add(uint8(4), histOps([2]int{0, 5}, [2]int{0, 5}, [2]int{5, 0}, [2]int{0, 5}, [2]int{5, 0},
		[2]int{7, 6}, [2]int{3, 9}, [2]int{6, 0}, [2]int{2, 0}, [2]int{5, 0}, [2]int{2, 0}))
	// A promoted histogram frozen, then thawed back to dense counts.
	f.Add(uint8(4), histOps(append(wide[:sparseMax+2:sparseMax+2], [2]int{5, 0}, [2]int{1, 0x0409}, [2]int{7, 3})...))
	f.Fuzz(func(t *testing.T, maxSel uint8, ops []byte) {
		max := fuzzMaxes[int(maxSel)%len(fuzzMaxes)]
		h, aux := NewHistogram(max), NewHistogram(max)
		m, auxM := make(denseModel, max+1), make(denseModel, max+1)
		checkAgainstModel(t, 0, h, m)
		for step := 1; len(ops) >= 3 && step <= 200; step++ {
			op, x := ops[0], int(ops[1])|int(ops[2])<<8
			ops = ops[3:]
			v := 1 + x%(max+8)
			switch op % 8 {
			case 0:
				h.Add(v)
				m.add(v, 1)
			case 1:
				n := uint64(x >> 8)
				h.AddN(1+x%(max+8), n)
				m.add(1+x%(max+8), n)
			case 2:
				h.Merge(aux)
				for v, c := range auxM {
					m[v] += c
				}
			case 3:
				aux.Add(v)
				auxM.add(v, 1)
			case 4:
				c := h.Clone()
				h.Add(1)
				if c.Total() != m.total() {
					t.Fatalf("step %d: mutating the original changed its clone", step)
				}
				h = c
			case 5:
				h.Freeze()
			case 6:
				aux.Freeze()
			case 7:
				h.Freeze()
				checkAgainstModel(t, step, h, m)
				h.Add(v)
				m.add(v, 1)
			}
			checkAgainstModel(t, step, h, m)
		}
	})
}
