package trace

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// countingSource is a stream whose record at position i has PC i.
func countingSource(n int) *SliceSource {
	insts := make([]DynInst, n)
	for i := range insts {
		insts[i].PC = uint64(i)
	}
	return NewSliceSource(insts)
}

func oneCursor(src Source) (*Spool, *Cursor) {
	sp := NewSpool(src)
	return sp, sp.NewCursor()
}

func TestCursorAt(t *testing.T) {
	_, c := oneCursor(countingSource(100))
	if d := c.At(0); d == nil || d.PC != 0 {
		t.Fatal("At(0) failed")
	}
	if d := c.At(99); d == nil || d.PC != 99 {
		t.Fatal("At(99) failed")
	}
	// Rewind within the window works.
	if d := c.At(10); d == nil || d.PC != 10 {
		t.Fatal("rewind failed")
	}
	if c.At(100) != nil {
		t.Fatal("beyond EOF should be nil")
	}
	if c.At(100) != nil {
		t.Fatal("EOF must be sticky")
	}
	// Release then read above the release point.
	c.Release(50)
	if d := c.At(60); d == nil || d.PC != 60 {
		t.Fatal("read after release failed")
	}
}

func TestCursorSequentialAndRewind(t *testing.T) {
	_, c := oneCursor(countingSource(100))
	for pos := uint64(0); pos < 100; pos++ {
		d := c.At(pos)
		if d == nil || d.PC != pos {
			t.Fatalf("At(%d) = %+v", pos, d)
		}
	}
	// Rewind to an unreleased position (the misprediction re-fetch path).
	if d := c.At(10); d == nil || d.PC != 10 {
		t.Fatalf("rewind to 10: %+v", d)
	}
}

func TestCursorEOF(t *testing.T) {
	_, c := oneCursor(countingSource(5))
	if d := c.At(4); d == nil || d.PC != 4 {
		t.Fatalf("last instruction: %+v", d)
	}
	if d := c.At(5); d != nil {
		t.Fatalf("read past EOF: %+v", d)
	}
	// EOF is sticky: the source is not consulted again.
	if d := c.At(1_000); d != nil {
		t.Fatalf("far past EOF: %+v", d)
	}
	// Retained instructions stay readable after EOF.
	if d := c.At(2); d == nil || d.PC != 2 {
		t.Fatalf("retained after EOF: %+v", d)
	}
}

func TestCursorReadBelowReleasePanics(t *testing.T) {
	sp, c := oneCursor(countingSource(10_000))
	c.At(4_999)
	c.Release(5_000) // drop >= 4096 forces compaction
	if sp.base != 5_000 {
		t.Fatalf("base after release = %d, want 5000", sp.base)
	}
	defer func() {
		if recover() == nil {
			t.Error("read below the release point did not panic")
		}
	}()
	c.At(4_999)
}

// TestCursorReadBelowReleasePanicsBeforeCompaction: the release point,
// not the compaction point, bounds reads — a read the window could
// still serve is refused all the same.
func TestCursorReadBelowReleasePanicsBeforeCompaction(t *testing.T) {
	sp, c := oneCursor(countingSource(100))
	c.At(99)
	c.Release(10) // below the compaction threshold: nothing dropped
	if sp.base != 0 {
		t.Fatalf("small release compacted: base=%d", sp.base)
	}
	defer func() {
		if recover() == nil {
			t.Error("read below the release point did not panic")
		}
	}()
	c.At(9)
}

func TestCursorReleaseBoundaries(t *testing.T) {
	sp, c := oneCursor(countingSource(100))
	c.At(99)
	// Releasing at or below the release point is a no-op.
	c.Release(0)
	if sp.base != 0 || len(sp.window) != 100 {
		t.Fatalf("Release(0) changed state: base=%d len=%d", sp.base, len(sp.window))
	}
	// A small release below the compaction threshold keeps the prefix
	// in the window (base unchanged): compaction is amortised.
	c.Release(10)
	if sp.base != 0 {
		t.Fatalf("small release compacted early: base=%d", sp.base)
	}
	// Releasing the whole window compacts regardless of size.
	c.Release(100)
	if sp.base != 100 || len(sp.window) != 0 {
		t.Fatalf("full release: base=%d len=%d", sp.base, len(sp.window))
	}
	// Releasing beyond everything read clamps the window to its end.
	c.Release(1_000)
	if sp.base != 100 {
		t.Fatalf("over-release moved base to %d", sp.base)
	}
	// The stream continues cleanly after a full release... until EOF.
	if d := c.At(1_000); d != nil {
		t.Fatalf("exhausted source produced %+v", d)
	}
}

func TestCursorReleaseCompaction(t *testing.T) {
	sp, c := oneCursor(countingSource(10_000))
	c.At(9_000)
	c.Release(8_192) // above the compaction threshold
	if len(sp.window) >= 9_000 {
		t.Errorf("window not compacted: %d entries", len(sp.window))
	}
	if d := c.At(8_500); d == nil || d.PC != 8_500 {
		t.Fatal("post-compaction read failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("read below the release point should panic")
		}
	}()
	c.At(100)
}

func TestCursorCompactionPreservesContent(t *testing.T) {
	const n = 20_000
	sp, c := oneCursor(countingSource(n))
	for pos := uint64(0); pos < n; pos++ {
		if d := c.At(pos); d == nil || d.PC != pos {
			t.Fatalf("At(%d) = %+v", pos, d)
		}
		// Release in steps as a committing pipeline would; compaction
		// must be invisible to subsequent reads.
		if pos%4_096 == 0 {
			c.Release(pos)
		}
	}
	if uint64(len(sp.window))+sp.base < n {
		t.Fatalf("window lost instructions: base=%d len=%d", sp.base, len(sp.window))
	}
}

// endlessSource is an unbounded stream for steady-state measurements.
type endlessSource struct{ pc uint64 }

func (s *endlessSource) NextBatch(dst []DynInst) int {
	for i := range dst {
		dst[i] = DynInst{PC: s.pc}
		s.pc++
	}
	return len(dst)
}

// TestCursorZeroAllocSteadyState pins the in-place read path's
// allocation behaviour: once the window has grown to its working size,
// At/Release cycles (chunked in-place refills, in-place compaction)
// allocate nothing, and a spool opened after another one's last Close
// reads into that spool's window instead of growing one of its own.
// Skipped under -race: the race runtime instruments allocations (and
// drops pooled items at random).
func TestCursorZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	_, c := oneCursor(&endlessSource{})
	pos := uint64(0)
	for ; pos < 100_000; pos++ { // warm: window capacity stabilises
		if c.At(pos) == nil {
			t.Fatal("endless source reported EOF")
		}
		if pos%4096 == 0 {
			c.Release(pos)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		for end := pos + 8192; pos < end; pos++ {
			if c.At(pos) == nil {
				t.Fatal("endless source reported EOF")
			}
			if pos%4096 == 0 {
				c.Release(pos)
			}
		}
	}); a != 0 {
		t.Errorf("Cursor At/Release: %v allocs/run in steady state, want 0", a)
	}
	c.Close()

	// One P and no collection while the steady state is measured: a
	// goroutine that moves between Ps can miss sync.Pool's per-P cache,
	// and a collection empties the pools (both documented behaviour).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	round := func() {
		_, c := oneCursor(&endlessSource{})
		for pos := uint64(0); pos < 20_000; pos++ {
			c.At(pos)
			if pos%4096 == 0 {
				c.Release(pos)
			}
		}
		c.Close()
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 10
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&after)
	// A round still allocates its source, spool and cursor; a window
	// would be at least one chunk.
	chunk := uint64(DefaultBatchSize) * uint64(unsafe.Sizeof(DynInst{}))
	if b := (after.TotalAlloc - before.TotalAlloc) / rounds; b >= chunk {
		t.Errorf("a spool after another's Close allocates %d bytes, at least a window chunk (%d)", b, chunk)
	}
}
