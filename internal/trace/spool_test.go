package trace

import "testing"

// drainCursor reads a cursor in place to EOF, verifying the canonical
// sequence and the sticky-EOF contract.
func drainCursor(t *testing.T, c *Cursor, want int) {
	t.Helper()
	var got []DynInst
	for pos := uint64(0); ; pos++ {
		d := c.At(pos)
		if d == nil {
			break
		}
		got = append(got, *d)
	}
	checkStream(t, got, want)
	if d := c.At(uint64(want)); d != nil {
		t.Fatalf("At(%d) after EOF returned %+v, want sticky nil", want, d)
	}
}

func TestSpoolSingleCursor(t *testing.T) {
	for _, n := range []int{0, 1, DefaultBatchSize, 3*DefaultBatchSize + 7} {
		sp := NewSpool(NewSliceSource(seqInsts(n)))
		drainCursor(t, sp.NewCursor(), n)
	}
}

// TestSpoolCursorsSeeIdenticalStreams: every cursor observes the full
// canonical sequence regardless of how reads and releases interleave.
func TestSpoolCursorsSeeIdenticalStreams(t *testing.T) {
	const n = 5*DefaultBatchSize + 13
	sp := NewSpool(NewSliceSource(seqInsts(n)))
	curs := []*Cursor{sp.NewCursor(), sp.NewCursor(), sp.NewCursor()}

	// a sprints ahead a chunk at a time, b follows in odd-sized steps,
	// c reads one instruction at a time and re-reads each one it
	// releases up to, as a rewinding pipeline would.
	steps := []uint64{DefaultBatchSize, 97, 1}
	var got [3][]DynInst
	var pos [3]uint64
	for {
		moved := false
		for i, c := range curs {
			for k := uint64(0); k < steps[i]; k++ {
				d := c.At(pos[i])
				if d == nil {
					break
				}
				if i == 2 && c.At(pos[i]) != d {
					t.Fatal("re-read of one position returned a different record")
				}
				got[i] = append(got[i], *d)
				pos[i]++
				moved = true
			}
			c.Release(pos[i] - pos[i]%500)
		}
		if !moved {
			break
		}
	}
	for i := range got {
		checkStream(t, got[i], n)
	}
}

// TestSpoolTrimBoundsWindow: with laggard-first scheduling and prompt
// releases the window must stay within a couple of chunks plus the trim
// hysteresis, no matter how long the stream is.
func TestSpoolTrimBoundsWindow(t *testing.T) {
	const n = 40 * DefaultBatchSize
	sp := NewSpool(NewSliceSource(seqInsts(n)))
	curs := []*Cursor{sp.NewCursor(), sp.NewCursor(), sp.NewCursor()}
	pos := make([]uint64, len(curs))
	maxWindow := 0
	for {
		// Advance the laggard by one chunk, as the lockstep driver does.
		lag := 0
		for i := range curs {
			if pos[i] < pos[lag] {
				lag = i
			}
		}
		if curs[lag].At(pos[lag]) == nil {
			break
		}
		for end := pos[lag] + DefaultBatchSize; pos[lag] < end; pos[lag]++ {
			if curs[lag].At(pos[lag]) == nil {
				break
			}
		}
		curs[lag].Release(pos[lag])
		if w := sp.WindowLen(); w > maxWindow {
			maxWindow = w
		}
	}
	// The spool compacts once the dead prefix reaches 4096; the live spread
	// under laggard-first scheduling is at most one chunk.
	if limit := 4096 + 2*DefaultBatchSize; maxWindow > limit {
		t.Fatalf("window grew to %d instructions, want <= %d", maxWindow, limit)
	}
}

// TestSpoolCloseReleasesWindow: closing every cursor drops the whole
// retained window even when the stream was not fully consumed.
func TestSpoolCloseReleasesWindow(t *testing.T) {
	sp := NewSpool(NewSliceSource(seqInsts(4 * DefaultBatchSize)))
	a, b := sp.NewCursor(), sp.NewCursor()
	a.At(DefaultBatchSize - 1)
	a.Release(DefaultBatchSize)
	b.Release(7) // b stays mid-window, pinning the rest of the chunk
	a.Close()
	if sp.WindowLen() == 0 {
		t.Fatal("window released while an open cursor still has unread data")
	}
	b.Close()
	if w := sp.WindowLen(); w != 0 {
		t.Fatalf("window holds %d instructions after all cursors closed, want 0", w)
	}
}

// TestSpoolLateCursorPanics: registering a consumer after consumption
// began would silently miss dropped data, so it must panic instead.
func TestSpoolLateCursorPanics(t *testing.T) {
	sp := NewSpool(NewSliceSource(seqInsts(DefaultBatchSize)))
	c := sp.NewCursor()
	c.At(7)
	defer func() {
		if recover() == nil {
			t.Fatal("NewCursor after consumption began did not panic")
		}
	}()
	sp.NewCursor()
}

// TestSpoolEmptySource: EOF before any data.
func TestSpoolEmptySource(t *testing.T) {
	sp := NewSpool(NewSliceSource(nil))
	c := sp.NewCursor()
	if d := c.At(0); d != nil {
		t.Fatalf("At(0) on empty source returned %+v", d)
	}
	if d := c.At(0); d != nil {
		t.Fatalf("At(0) after EOF returned %+v", d)
	}
}
