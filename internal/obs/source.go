package obs

import (
	"time"

	"repro/internal/trace"
)

// TimedSource wraps a trace.Source and accumulates the wall-clock time
// spent inside Next — the synthetic-trace generator runs lazily,
// interleaved with simulation, so this is how generation time is
// separated from pure timing-simulation time when tracing is enabled.
// Wrap only when a tracer is live: the per-instruction clock reads are
// exactly the overhead the disabled path avoids.
type TimedSource struct {
	Src trace.Source

	batch trace.BatchSource // lazily built batched view of Src
	insts uint64
	dur   time.Duration
	now   func() time.Time
}

// NewTimedSource wraps src for generation-time attribution.
func NewTimedSource(src trace.Source) *TimedSource {
	return &TimedSource{Src: src, now: time.Now}
}

// Next implements trace.Source.
func (t *TimedSource) Next(d *trace.DynInst) bool {
	start := t.now()
	ok := t.Src.Next(d)
	t.dur += t.now().Sub(start)
	if ok {
		t.insts++
	}
	return ok
}

// NextBatch implements trace.BatchSource, timing whole-chunk refills —
// two clock reads per chunk instead of two per instruction, so tracing
// through the batch path costs even less than the per-instruction
// wrapper. Mixing Next and NextBatch on one TimedSource is not
// supported (each would consume the underlying stream independently).
func (t *TimedSource) NextBatch(dst []trace.DynInst) int {
	if t.batch == nil {
		t.batch = trace.Batched(t.Src)
	}
	start := t.now()
	n := t.batch.NextBatch(dst)
	t.dur += t.now().Sub(start)
	t.insts += uint64(n)
	return n
}

// Instructions returns the number of instructions delivered so far.
func (t *TimedSource) Instructions() uint64 { return t.insts }

// Duration returns the accumulated time spent generating.
func (t *TimedSource) Duration() time.Duration { return t.dur }
