package trace

import (
	"bytes"
	"testing"

	"repro/internal/isa"
)

func sampleTrace(n int) []DynInst {
	out := make([]DynInst, n)
	for i := range out {
		out[i] = DynInst{
			Seq:     uint64(i),
			PC:      0x400000 + uint64(i)*8,
			NextPC:  0x400000 + uint64(i+1)*8,
			EffAddr: uint64(i) * 64,
			Class:   isa.Class(i % int(isa.NumClasses)),
			NumSrcs: uint8(i % 3),
			BlockID: int32(i % 7),
			Index:   int16(i % 5),
			Taken:   i%2 == 0,
			Flags:   Flags(i % 256),
			WAWDist: uint32(i % 100),
		}
		for op := 0; op < 3; op++ {
			out[i].DepDist[op] = uint32((i + op) % 513)
		}
	}
	return out
}

func TestTraceFileRoundTrip(t *testing.T) {
	orig := sampleTrace(1000)
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, NewSliceSource(orig))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("wrote %d records", n)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(r, 0)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(orig) {
		t.Fatalf("read %d records, want %d", len(got), len(orig))
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("record %d changed:\n%+v\n%+v", i, got[i], orig[i])
		}
	}
}

func TestTraceFileEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if n, err := WriteTrace(&buf, NewSliceSource(nil)); err != nil || n != 0 {
		t.Fatalf("empty write: n=%d err=%v", n, err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.NextBatch(make([]DynInst, 1)) != 0 {
		t.Error("empty trace produced a record")
	}
	if r.Err() != nil {
		t.Errorf("clean EOF reported as error: %v", r.Err())
	}
}

func TestTraceFileRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Right magic, wrong version.
	bad := append([]byte("STRC"), 9, 0, 0, 0)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestTraceFileTruncated(t *testing.T) {
	orig := sampleTrace(10)
	var buf bytes.Buffer
	if _, err := WriteTrace(&buf, NewSliceSource(orig)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-5]))
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(r, 0)
	if len(got) != 9 {
		t.Errorf("truncated trace yielded %d records, want 9", len(got))
	}
	if r.Err() == nil {
		t.Error("truncation should surface as an error")
	}
}
