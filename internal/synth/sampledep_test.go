package synth

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// sampleDepReference is the §2.2-step-4 rejection loop as the paper
// states it — every one of the maxDepRetries draws taken, with no early
// exit. sampleDep must return the same (delta, ok) and leave the RNG in
// the same state.
func (t *TraceSource) sampleDepReference(h *stats.Histogram, count uint64) (uint32, bool) {
	if h == nil || h.Total() == 0 {
		return 0, false
	}
	if t.rng.Float64() >= float64(h.Total())/float64(count) {
		return 0, false
	}
	for try := 0; try < maxDepRetries; try++ {
		delta := uint64(h.Sample(t.rng.Float64()))
		if delta > t.seq {
			continue // before the start of the trace
		}
		if !t.hasDest[(t.seq-delta)%destRing] {
			continue // would depend on a branch or store: reject
		}
		return uint32(delta), true
	}
	return 0, false
}

// depSource is a bare trace source positioned at instruction seq, with
// hasDest[seq-d] = dest(d) for every distance 1 <= d <= seq in the
// window.
func depSource(seed, seq uint64, dest func(d uint64) bool) *TraceSource {
	t := &TraceSource{rng: stats.NewRNG(seed), seq: seq, hasDest: make([]bool, destRing)}
	for d := uint64(1); d <= seq && d < destRing; d++ {
		t.hasDest[(seq-d)%destRing] = dest(d)
	}
	return t
}

// checkSampleDep runs sampleDep and the reference from the same RNG
// state n times in a row and fails on the first call whose result or
// resulting RNG state differs.
func checkSampleDep(t *testing.T, name string, ts *TraceSource, h *stats.Histogram, count uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		start := *ts.rng
		d, ok := ts.sampleDep(h, count)
		fast := *ts.rng
		*ts.rng = start
		rd, rok := ts.sampleDepReference(h, count)
		if d != rd || ok != rok {
			t.Fatalf("%s, call %d: sampleDep = (%d, %v), reference (%d, %v)", name, i, d, ok, rd, rok)
		}
		if fast != *ts.rng {
			t.Fatalf("%s, call %d: RNG state differs from the reference's after (%d, %v)", name, i, d, ok)
		}
	}
}

// histOf builds a frozen dependency-distance histogram from value →
// count.
func histOf(counts map[int]uint64) *stats.Histogram {
	h := stats.NewHistogram(stats.MaxDependencyDistance)
	for v, c := range counts {
		h.AddN(v, c)
	}
	h.Freeze()
	return h
}

// TestSampleDepMatchesReference pins the early exit on the cases it is
// built for and the ones it must leave alone: support that can never
// be accepted (a lone value landing on a store or branch, or support
// wholly beyond the start of the trace), a single rare acceptable value
// among many rejected ones, and support that is acceptable everywhere.
func TestSampleDepMatchesReference(t *testing.T) {
	noDest := func(uint64) bool { return false }
	allDest := func(uint64) bool { return true }
	cases := []struct {
		name       string
		seq        uint64
		dest       func(d uint64) bool
		hist       map[int]uint64
		count      uint64
		acceptable bool // whether anyProducer holds
	}{
		{"single value on a store", 100, func(d uint64) bool { return d != 3 }, map[int]uint64{3: 50}, 50, false},
		{"single value on a branch, rare dependency", 100, func(d uint64) bool { return d != 1 }, map[int]uint64{1: 5}, 80, false},
		{"support beyond seq at trace start", 2, allDest, map[int]uint64{3: 4, 9: 2, 40: 1}, 7, false},
		{"empty window at seq 0", 0, allDest, map[int]uint64{1: 1}, 1, false},
		{"no producer in the window", 600, noDest, map[int]uint64{1: 9, 17: 3, 512: 1}, 13, false},
		{"one rare acceptable value", 600, func(d uint64) bool { return d == 7 }, map[int]uint64{1: 100_000, 2: 50_000, 7: 1}, 150_001, true},
		{"rare value beyond seq only", 5, allDest, map[int]uint64{1: 1, 30: 1000}, 1001, true},
		{"all values acceptable", 1000, allDest, map[int]uint64{1: 3, 2: 5, 64: 1, 512: 2}, 11, true},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 20; seed++ {
			ts := depSource(seed, c.seq, c.dest)
			h := histOf(c.hist)
			if got := ts.anyProducer(h); got != c.acceptable {
				t.Fatalf("%s: anyProducer = %v, want %v", c.name, got, c.acceptable)
			}
			checkSampleDep(t, c.name, ts, h, c.count, 50)
		}
	}
}

// TestSampleDepMatchesReferenceOnWalk compares the two on a real walk:
// at points along a generated trace, every dependency histogram of the
// graph is sampled from the walk's own seq and producer window.
func TestSampleDepMatchesReferenceOnWalk(t *testing.T) {
	g := profileBenchmark(t, 6, 80, 60_000, 1)
	r, err := Reduce(g, Options{R: 6})
	if err != nil {
		t.Fatal(err)
	}
	ts := r.NewTrace(3)
	buf := make([]trace.DynInst, 997)
	for round := 0; ts.NextBatch(buf) > 0 && round < 8; round++ {
		for _, e := range g.Edges {
			for i := range e.Insts {
				ip := &e.Insts[i]
				for op := 0; op < int(ip.NumSrcs); op++ {
					checkSampleDep(t, "dep", ts, ip.Dep[op], e.Count, 1)
				}
				checkSampleDep(t, "waw", ts, ip.WAW, e.Count, 1)
			}
		}
	}
}

// FuzzSampleDep compares sampleDep with the reference on arbitrary
// histograms, trace positions and producer windows. hist is read as
// (value-1, count) byte pairs, so values span 1..256, half the
// dependency bound; bit i of window says whether the instruction i+1
// back writes a register.
func FuzzSampleDep(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint16(0), []byte{3, 50}, []byte{0xfb})
	f.Add(uint64(2), uint16(1), uint16(3), []byte{3, 4, 9, 2, 40, 1}, []byte{0xff})
	f.Add(uint64(3), uint16(600), uint16(0), []byte{1, 200, 7, 1}, []byte{0x40})
	f.Add(uint64(4), uint16(1000), uint16(9), []byte{1, 3, 2, 5, 64, 1, 255, 2}, []byte{0xff, 0xff, 0xff})
	f.Add(uint64(5), uint16(40), uint16(1), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, seq, extra uint16, hist, window []byte) {
		counts := map[int]uint64{}
		for i := 0; i+1 < len(hist); i += 2 {
			if hist[i+1] != 0 {
				counts[1+int(hist[i])] += uint64(hist[i+1])
			}
		}
		h := histOf(counts)
		ts := depSource(seed, uint64(seq)%(2*destRing), func(d uint64) bool {
			i := d - 1
			return i < uint64(len(window))*8 && window[i/8]&(1<<(i%8)) != 0
		})
		checkSampleDep(t, "fuzz", ts, h, h.Total()+uint64(extra), 8)
	})
}
