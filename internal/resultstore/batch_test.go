package resultstore

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestPutBatchGroupCommit: a batch lands whole, duplicates (already
// indexed, or repeated inside the batch) are skipped, and Put stays the
// one-element form of the same commit.
func TestPutBatchGroupCommit(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(testKey(0), testMetrics(0)); err != nil {
		t.Fatal(err)
	}
	keys := []Key{testKey(0), testKey(1), testKey(2), testKey(1)}
	ms := []core.Metrics{testMetrics(0), testMetrics(1), testMetrics(2), testMetrics(1)}
	if err := st.PutBatch(keys, ms); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Records != 3 || s.Appends != 3 {
		t.Fatalf("records/appends = %d/%d, want 3/3", s.Records, s.Appends)
	}
	for i := 0; i < 3; i++ {
		if m, ok := st.Get(testKey(i)); !ok || m != testMetrics(i) {
			t.Fatalf("record %d not served after the batch", i)
		}
	}
	if err := st.PutBatch(keys[:1], nil); err == nil {
		t.Fatal("mismatched batch lengths accepted")
	}
}

// TestPutBatchCrashCutMatrix crashes mid-commit at every byte offset of
// a multi-record batch: reopening must recover exactly the whole,
// CRC-valid records before the cut, and Get must never serve a record
// past it.
func TestPutBatchCrashCutMatrix(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One record committed alone, then a four-record batch.
	if err := st.Put(testKey(0), testMetrics(0)); err != nil {
		t.Fatal(err)
	}
	const n = 5
	var keys []Key
	var ms []core.Metrics
	for i := 1; i < n; i++ {
		keys = append(keys, testKey(i))
		ms = append(ms, testMetrics(i))
	}
	if err := st.PutBatch(keys, ms); err != nil {
		t.Fatal(err)
	}
	st.Close()
	full, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the byte offset where record i's frame ends.
	ends := make([]int, n)
	off := headerLen
	for i := range ends {
		_, _, size, err := DecodeRecord(full[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += size
		ends[i] = off
	}
	if off != len(full) {
		t.Fatalf("log holds %d trailing bytes", len(full)-off)
	}

	for cut := ends[0]; cut <= len(full); cut++ {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, logName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir2)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		whole := 0
		for whole < n && ends[whole] <= cut {
			whole++
		}
		if s := st2.Stats(); s.Records != whole || s.Quarantined != 0 {
			st2.Close()
			t.Fatalf("cut %d: recovered %d records (quarantined %d), want %d", cut, s.Records, s.Quarantined, whole)
		}
		for i := 0; i < n; i++ {
			m, ok := st2.Get(testKey(i))
			if ok != (i < whole) || (ok && m != testMetrics(i)) {
				st2.Close()
				t.Fatalf("cut %d: Get(record %d) = ok %v, want %v", cut, i, ok, i < whole)
			}
		}
		st2.Close()
	}
}
