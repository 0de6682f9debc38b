package stats

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestHistogramBinaryRoundTrip: the byte form carries everything a
// histogram answers — Total, Count, Mean, Quantile and the Sample
// mapping — and is the same whether it is read from the dense counts
// or from a frozen histogram's sampling entries.
func TestHistogramBinaryRoundTrip(t *testing.T) {
	r := NewRNG(7)
	cases := []*Histogram{NewHistogram(1), NewHistogram(512)}
	one := NewHistogram(1)
	one.AddN(1, 5)
	cases = append(cases, one)
	for _, max := range []int{2, 16, 512, 4096} {
		for _, spread := range []int{1, 3, 40, max} {
			h := NewHistogram(max)
			for i := 0; i < 500; i++ {
				// Values past max clamp to it, as in profiling.
				h.AddN(1+r.Intn(spread)+r.Intn(2)*max, uint64(1+r.Intn(1000)))
			}
			cases = append(cases, h)
		}
	}
	for i, h := range cases {
		dense, err := h.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		h.Freeze()
		frozen, err := h.AppendBinary([]byte{0xAA})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dense, frozen[1:]) {
			t.Fatalf("case %d: frozen byte form differs from the dense one", i)
		}
		got, n, err := DecodeHistogram(append(dense, 0xBB))
		if err != nil || n != len(dense) {
			t.Fatalf("case %d: decode read %d of %d bytes: %v", i, n, len(dense), err)
		}
		if m, err := HistogramLen(dense); err != nil || m != len(dense) {
			t.Fatalf("case %d: HistogramLen %d, %v", i, m, err)
		}
		if got.Max != h.Max || got.Total() != h.Total() || got.Mean() != h.Mean() {
			t.Fatalf("case %d: max/total/mean %d/%d/%v, want %d/%d/%v",
				i, got.Max, got.Total(), got.Mean(), h.Max, h.Total(), h.Mean())
		}
		for v := 0; v <= h.Max+1; v++ {
			if got.Count(v) != h.Count(v) {
				t.Fatalf("case %d: Count(%d) = %d, want %d", i, v, got.Count(v), h.Count(v))
			}
		}
		for q := 0.0; q <= 1; q += 1.0 / 64 {
			if got.Quantile(q) != h.Quantile(q) {
				t.Fatalf("case %d: Quantile(%v) = %d, want %d", i, q, got.Quantile(q), h.Quantile(q))
			}
		}
		if h.Total() == 0 {
			continue
		}
		us := []float64{0, 0.5, 1 - 1e-12, 0.9999999999999999}
		for j := 0; j < 2000; j++ {
			us = append(us, r.Float64())
		}
		for _, u := range us {
			if got.Sample(u) != h.Sample(u) {
				t.Fatalf("case %d: Sample(%v) = %d, want %d", i, u, got.Sample(u), h.Sample(u))
			}
		}
	}
}

// TestDecodeHistogramRejects: the decoder accepts only what AppendBinary
// writes, and a count is checked against the bytes left before it
// sizes anything.
func TestDecodeHistogramRejects(t *testing.T) {
	u := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	bad := map[string][]byte{
		"empty":               nil,
		"max 0":               u(0, 0),
		"max too large":       u(maxEncodedMax+1, 0),
		"padded max":          {0x88, 0x00, 0x00},
		"padded count":        append(u(8, 1, 2), 0x85, 0x00),
		"truncated pair":      u(8, 1, 2),
		"more pairs than max": u(2, 3, 1, 1, 1, 1, 1, 1),
		"pairs past the end":  u(512, 300, 1, 1),
		"value 0":             u(8, 1, 0, 1),
		"repeated value":      u(8, 2, 3, 1, 0, 1),
		"value above max":     u(8, 2, 3, 1, 6, 1),
		"zero count":          u(8, 1, 3, 0),
		"total overflows":     u(8, 2, 1, 1<<63, 1, 1<<63),
	}
	for name, b := range bad {
		if _, _, err := DecodeHistogram(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := HistogramLen(b); err == nil {
			t.Errorf("%s: HistogramLen accepted", name)
		}
	}
	h, _, err := DecodeHistogram(u(8, 2, 3, 1, 5, 4))
	if err != nil || h.Count(3) != 1 || h.Count(8) != 4 || h.Total() != 5 {
		t.Errorf("valid form misread: %v", err)
	}
	if _, err := NewHistogram(maxEncodedMax + 1).AppendBinary(nil); err == nil {
		t.Error("histogram above the encodable max encoded")
	}
}
