package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// maxEncodedMax bounds the Max a histogram's byte form may carry. A
// decoded histogram with more than sparseMax values holds a dense array
// of Max+1 counts, so the bound keeps one short record from asking for
// an arbitrarily large one; it is 128 times the paper's 512-entry
// distribution.
const maxEncodedMax = 1 << 16

var errTruncatedHistogram = errors.New("stats: truncated or malformed histogram")

// AppendBinary appends h's byte form to b: Max, the number of
// non-empty values, then each non-empty value in increasing order as
// its distance from the previous one (the first from 0) and its count,
// all uvarints. It writes nothing to h, so it is safe on a frozen
// histogram that other goroutines are sampling, and the bytes do not
// depend on whether h is sparse, dense or frozen.
func (h *Histogram) AppendBinary(b []byte) ([]byte, error) {
	if h.Max < 1 || h.Max > maxEncodedMax {
		return b, fmt.Errorf("stats: histogram max %d outside [1,%d]", h.Max, maxEncodedMax)
	}
	b = binary.AppendUvarint(b, uint64(h.Max))
	b = binary.AppendUvarint(b, uint64(h.support()))
	prev := 0
	h.each(func(v int, n uint64) bool {
		b = binary.AppendUvarint(b, uint64(v-prev))
		b = binary.AppendUvarint(b, n)
		prev = v
		return true
	})
	return b, nil
}

// DecodeHistogram decodes the byte form AppendBinary writes from the
// front of b. It returns the histogram, unfrozen, and the number of
// bytes read. The histogram takes the form profiling would have given
// it: sorted sparse pairs, or dense counts past sparseMax values.
func DecodeHistogram(b []byte) (*Histogram, int, error) {
	h := new(Histogram)
	n, err := parseHistogram(b, h)
	if err != nil {
		return nil, 0, err
	}
	return h, n, nil
}

// HistogramLen checks the byte form at the front of b exactly as
// DecodeHistogram does, without allocating, and returns its length. A
// decoder can check a whole input this way before it allocates any
// histogram.
func HistogramLen(b []byte) (int, error) { return parseHistogram(b, nil) }

// parseHistogram reads one byte form, filling h when it is non-nil. It
// accepts exactly the bytes AppendBinary can produce: minimal uvarints,
// Max in [1, maxEncodedMax], values strictly increasing within [1, Max]
// (no duplicates), counts non-zero and a total that fits in 64 bits.
func parseHistogram(b []byte, h *Histogram) (int, error) {
	hmax, off := uvarint(b)
	if off <= 0 || hmax < 1 || hmax > maxEncodedMax {
		return 0, fmt.Errorf("stats: histogram max outside [1,%d]", maxEncodedMax)
	}
	np, n := uvarint(b[off:])
	if n <= 0 {
		return 0, errTruncatedHistogram
	}
	off += n
	// Each pair takes at least two bytes, so a pair count is checked
	// against what is left before anything is sized from it.
	if np > hmax || np > uint64(len(b)-off)/2 {
		return 0, errTruncatedHistogram
	}
	if h != nil {
		h.Max = int(hmax)
		if np > sparseMax {
			h.counts = make([]uint64, hmax+1)
		} else if np > 0 {
			h.vals = make([]histEntry, 0, np)
		}
	}
	var v, total uint64
	for i := uint64(0); i < np; i++ {
		d, n := uvarint(b[off:])
		if n <= 0 {
			return 0, errTruncatedHistogram
		}
		off += n
		c, n := uvarint(b[off:])
		if n <= 0 {
			return 0, errTruncatedHistogram
		}
		off += n
		switch {
		case d == 0:
			return 0, fmt.Errorf("stats: histogram value %d repeated", v)
		case d > hmax-v:
			return 0, fmt.Errorf("stats: histogram value above max %d", hmax)
		case c == 0:
			return 0, fmt.Errorf("stats: histogram value %d has a zero count", v+d)
		case total+c < total:
			return 0, errors.New("stats: histogram total overflows")
		}
		v += d
		total += c
		switch {
		case h == nil:
		case h.counts != nil:
			h.counts[v] = c
		default:
			h.vals = append(h.vals, histEntry{n: c, val: int32(v)})
		}
	}
	if h != nil {
		h.total = total
	}
	return off, nil
}

// uvarint decodes a uvarint from the front of b like binary.Uvarint,
// but also rejects padded encodings (a multi-byte form ending in a
// zero byte), so every value has exactly one accepted encoding.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}
