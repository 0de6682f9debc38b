package trace

import "sync"

// Spool materialises one Source stream exactly once into a sliding
// window and serves it in place to N Cursor consumers — the one stream
// buffer behind both a single pipeline's fetch (a one-cursor spool) and
// lockstep multi-config simulation, where a single synthetic-trace
// generation pass drives many pipeline instances.
//
// Consumers read by stream position (Cursor.At) rather than by copying:
// a pipeline rewinds to re-fetch squashed wrong-path instructions, so it
// needs random access to everything it has not yet committed. Each
// cursor declares how far it will never read again (Cursor.Release);
// the window drops what lies below every open cursor's release point.
// A scheduler that keeps the consumers within a chunk of each other
// (internal/lockstep) therefore keeps the window a few chunks wide
// regardless of consumer count, and every consumer reads the same
// cache-resident bytes.
//
// Concurrency: a Spool and its Cursors belong to one goroutine — the
// lockstep driver advances instances sequentially. Create every cursor
// before the first read; cursors created after consumption has begun
// would miss the already-dropped prefix (NewCursor panics then).
//
// The window's backing array comes from a pool shared by all spools
// and goes back to it when the last cursor closes, so a run does not
// regrow its window from empty: one finished run's window serves the
// next run's spool, possibly on another goroutine.
type Spool struct {
	src     Source
	base    uint64 // stream position of window[0]
	window  []DynInst
	pooled  *[]DynInst // the pool's holder of window's backing array, nil when none is held
	eof     bool
	cursors []*Cursor
}

// windowPool recycles spool windows. It holds pointers, so a Put does
// not allocate a slice header.
var windowPool = sync.Pool{New: func() any { return new([]DynInst) }}

// NewSpool wraps src for multi-cursor consumption. The source must not
// be read by anyone else.
func NewSpool(src Source) *Spool {
	return &Spool{src: src}
}

// NewCursor registers a new consumer, free to read from the start of
// the stream. All cursors must be created before any of them reads.
func (s *Spool) NewCursor() *Cursor {
	if s.base != 0 || len(s.window) != 0 || s.eof {
		panic("trace: Spool.NewCursor after consumption began")
	}
	c := &Cursor{sp: s}
	s.cursors = append(s.cursors, c)
	return c
}

// fill extends the window by up to one chunk from the source, reading
// in place into the window's spare capacity.
func (s *Spool) fill() {
	if s.pooled == nil {
		s.pooled = windowPool.Get().(*[]DynInst)
		s.window = (*s.pooled)[:0]
	}
	n := len(s.window)
	if cap(s.window)-n < DefaultBatchSize {
		grown := make([]DynInst, n, 2*cap(s.window)+DefaultBatchSize)
		copy(grown, s.window)
		s.window = grown
	}
	k := s.src.NextBatch(s.window[n : n+DefaultBatchSize])
	if k == 0 {
		s.eof = true
		return
	}
	s.window = s.window[:n+k]
}

// trim discards window entries below the lowest release point of the
// open cursors, compacting only when a sizeable prefix is dead
// (amortising the copy). With every cursor closed the whole window is
// released, and its backing array goes back to the pool.
func (s *Spool) trim() {
	min, open := ^uint64(0), false
	for _, c := range s.cursors {
		if !c.closed {
			open = true
			if c.release < min {
				min = c.release
			}
		}
	}
	if !open {
		if s.pooled != nil {
			*s.pooled = s.window[:0]
			windowPool.Put(s.pooled)
			s.pooled = nil
		}
		s.window = nil
		return
	}
	if min <= s.base {
		return
	}
	drop := min - s.base
	if drop > uint64(len(s.window)) {
		drop = uint64(len(s.window))
		min = s.base + drop
	}
	if drop >= 4096 || drop == uint64(len(s.window)) {
		s.window = append(s.window[:0], s.window[drop:]...)
		s.base = min
	}
}

// WindowLen reports the retained window size in instructions
// (observability and tests; release-point trimming keeps it small).
func (s *Spool) WindowLen() int { return len(s.window) }

// Cursor is one consumer's view of a Spool: random access by stream
// position at or above its release point.
type Cursor struct {
	sp      *Spool
	release uint64 // the consumer never reads below this position again
	closed  bool
}

// At returns the instruction at stream position pos, pulling chunks
// from the source as needed, or nil once the stream ends before pos
// (EOF is sticky: the source is not consulted again). pos must not be
// below the cursor's release point. The record is read in place: it
// stays valid until the next Release or Close on any cursor of the
// spool, and must not be modified. After the spool's last Close it must
// not be used at all: the window may by then belong to another spool,
// on another goroutine.
func (c *Cursor) At(pos uint64) *DynInst {
	if w := c.sp.window; pos >= c.release && pos-c.sp.base < uint64(len(w)) {
		return &w[pos-c.sp.base]
	}
	return c.at(pos)
}

// at is At's slow path: argument checks and refills.
func (c *Cursor) at(pos uint64) *DynInst {
	if c.closed {
		panic("trace: Cursor read after Close")
	}
	if pos < c.release {
		panic("trace: Cursor read below its release point")
	}
	s := c.sp
	for pos >= s.base+uint64(len(s.window)) {
		if s.eof {
			return nil
		}
		s.fill()
	}
	return &s.window[pos-s.base]
}

// Release declares that this consumer will never read below stream
// position pos again, letting the spool drop what no open cursor still
// needs. Releasing at or below an earlier release point is a no-op.
func (c *Cursor) Release(pos uint64) {
	if pos <= c.release {
		return
	}
	c.release = pos
	c.sp.trim()
}

// Close marks the cursor done so it no longer pins the window. The
// spool's last Close hands the window back to the pool; closing a
// closed cursor does nothing.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.sp.trim()
}
