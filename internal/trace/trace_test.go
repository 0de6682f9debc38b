package trace

import (
	"testing"

	"repro/internal/isa"
)

func TestFlags(t *testing.T) {
	f := FlagL1DMiss | FlagL2DMiss
	if !f.Has(FlagL1DMiss) || !f.Has(FlagL2DMiss) {
		t.Error("set flags not detected")
	}
	if f.Has(FlagL1IMiss) {
		t.Error("unset flag detected")
	}
	if !f.Has(FlagL1DMiss | FlagL2DMiss) {
		t.Error("Has must require all bits")
	}
	if f.Has(FlagL1DMiss | FlagBrMispredict) {
		t.Error("Has must not accept partial matches")
	}
}

// seqInsts builds n distinguishable instructions.
func seqInsts(n int) []DynInst {
	out := make([]DynInst, n)
	for i := range out {
		out[i].Seq = uint64(i)
		out[i].PC = uint64(i) * 8
	}
	return out
}

// checkStream verifies that insts are the first len(insts) records of
// the canonical sequence.
func checkStream(t *testing.T, insts []DynInst, want int) {
	t.Helper()
	if len(insts) != want {
		t.Fatalf("got %d instructions, want %d", len(insts), want)
	}
	for i, d := range insts {
		if d.Seq != uint64(i) || d.PC != uint64(i)*8 {
			t.Fatalf("instruction %d corrupted: %+v", i, d)
		}
	}
}

func TestSliceSource(t *testing.T) {
	s := NewSliceSource([]DynInst{{Seq: 0}, {Seq: 1}})
	buf := make([]DynInst, 1)
	for i := uint64(0); i < 2; i++ {
		if s.NextBatch(buf) != 1 || buf[0].Seq != i {
			t.Fatalf("NextBatch %d failed", i)
		}
	}
	if s.NextBatch(buf) != 0 {
		t.Error("exhausted source returned an instruction")
	}
	if s.NextBatch(buf) != 0 {
		t.Error("NextBatch after exhaustion must keep returning 0")
	}
	s.Reset()
	if s.NextBatch(buf) != 1 || buf[0].Seq != 0 {
		t.Error("Reset did not rewind")
	}
}

func TestLimitSource(t *testing.T) {
	if got := Collect(&LimitSource{Src: NewSliceSource(make([]DynInst, 10)), N: 3}, 0); len(got) != 3 {
		t.Errorf("limit delivered %d, want 3", len(got))
	}
	if got := Collect(&LimitSource{Src: NewSliceSource(make([]DynInst, 2)), N: 5}, 0); len(got) != 2 {
		t.Errorf("short stream delivered %d, want 2", len(got))
	}
}

// TestLimitSourceBatchMidChunk puts the limit inside a chunk, for
// chunk sizes 1, 7 and 1,024: the final chunk must be clipped exactly at
// N and the underlying source must not be consumed past it.
func TestLimitSourceBatchMidChunk(t *testing.T) {
	for _, limit := range []int{1, 6, DefaultBatchSize + 1, DefaultBatchSize + DefaultBatchSize/2} {
		for _, k := range []int{1, 7, DefaultBatchSize} {
			under := NewSliceSource(seqInsts(4 * DefaultBatchSize))
			l := &LimitSource{Src: under, N: uint64(limit)}
			buf := make([]DynInst, k)
			var got []DynInst
			for n := l.NextBatch(buf); n > 0; n = l.NextBatch(buf) {
				got = append(got, buf[:n]...)
			}
			checkStream(t, got, limit)
			// The next record of the underlying stream must still be
			// available: the limit clip may not over-consume.
			if under.NextBatch(buf[:1]) != 1 || buf[0].Seq != uint64(limit) {
				t.Fatalf("limit %d, chunk %d: underlying source over-consumed: next=%+v", limit, k, buf[0])
			}
		}
	}
}

// TestLimitSourceBatchEmptyFinalChunk exhausts the limit exactly on a
// chunk boundary: the final NextBatch call must return an empty (zero)
// chunk, sticky thereafter.
func TestLimitSourceBatchEmptyFinalChunk(t *testing.T) {
	const limit = 2 * DefaultBatchSize
	l := &LimitSource{Src: NewSliceSource(seqInsts(4 * DefaultBatchSize)), N: limit}
	buf := make([]DynInst, DefaultBatchSize)
	total := 0
	for i := 0; i < 2; i++ {
		if k := l.NextBatch(buf); k != DefaultBatchSize {
			t.Fatalf("chunk %d: got %d, want full chunk", i, k)
		}
		total += DefaultBatchSize
	}
	for i := 0; i < 3; i++ {
		if k := l.NextBatch(buf); k != 0 {
			t.Fatalf("expected empty final chunk, got %d", k)
		}
	}
	if total != limit {
		t.Fatalf("delivered %d, want %d", total, limit)
	}
}

// TestLimitSourceShortUnderlying checks the limit does not mask a
// shorter underlying stream.
func TestLimitSourceShortUnderlying(t *testing.T) {
	const n = 100
	l := &LimitSource{Src: NewSliceSource(seqInsts(n)), N: 1000}
	checkStream(t, Collect(l, 0), n)
}

func TestCollect(t *testing.T) {
	src := NewSliceSource(make([]DynInst, 10))
	if got := Collect(src, 4); len(got) != 4 {
		t.Errorf("Collect(4) = %d", len(got))
	}
	src.Reset()
	if got := Collect(src, 0); len(got) != 10 {
		t.Errorf("Collect(0) = %d, want all", len(got))
	}
}

func TestCollectMax(t *testing.T) {
	for _, tc := range []struct{ n, max, want int }{
		{3 * DefaultBatchSize, 0, 3 * DefaultBatchSize},
		{3 * DefaultBatchSize, DefaultBatchSize + 13, DefaultBatchSize + 13},
		{10, 100, 10},
		{0, 5, 0},
	} {
		src := NewSliceSource(seqInsts(tc.n))
		got := Collect(src, tc.max)
		checkStream(t, got, tc.want)
		if tc.max > 0 && tc.n > tc.max {
			// Collect must not consume past max.
			buf := make([]DynInst, 1)
			if src.NextBatch(buf) != 1 || buf[0].Seq != uint64(tc.max) {
				t.Fatalf("Collect over-consumed: next=%+v", buf[0])
			}
		}
	}
}

// TestBatchedRoundTrip round-trips streams whose lengths sit around the
// chunk boundaries through chunked reads.
func TestBatchedRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, DefaultBatchSize - 1, DefaultBatchSize, DefaultBatchSize + 1, 3 * DefaultBatchSize} {
		checkStream(t, Collect(NewSliceSource(seqInsts(n)), 0), n)
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	f := FuncSource(func(out *DynInst) bool {
		if n >= 2 {
			return false
		}
		*out = DynInst{Seq: uint64(n)}
		n++
		return true
	})
	if got := Collect(f, 0); len(got) != 2 || got[1].Seq != 1 {
		t.Errorf("FuncSource broken: %v", got)
	}
}

func TestIsBranch(t *testing.T) {
	d := DynInst{Class: isa.IntBranch}
	if !d.IsBranch() {
		t.Error("IntBranch not a branch")
	}
	d.Class = isa.Load
	if d.IsBranch() {
		t.Error("Load is not a branch")
	}
}
