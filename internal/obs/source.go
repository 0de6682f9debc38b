package obs

import (
	"time"

	"repro/internal/trace"
)

// TimedSource wraps a trace.Source and accumulates the wall-clock time
// spent inside NextBatch — the synthetic-trace generator runs lazily,
// interleaved with simulation, so this is how generation time is
// separated from pure timing-simulation time when tracing is enabled.
// It reads the clock twice per chunk; wrap only when a tracer is live.
type TimedSource struct {
	Src trace.Source

	insts uint64
	dur   time.Duration
	now   func() time.Time
}

// NewTimedSource wraps src for generation-time attribution.
func NewTimedSource(src trace.Source) *TimedSource {
	return &TimedSource{Src: src, now: time.Now}
}

// NextBatch implements trace.Source, timing the whole chunk refill.
func (t *TimedSource) NextBatch(dst []trace.DynInst) int {
	start := t.now()
	n := t.Src.NextBatch(dst)
	t.dur += t.now().Sub(start)
	t.insts += uint64(n)
	return n
}

// Instructions returns the number of instructions delivered so far.
func (t *TimedSource) Instructions() uint64 { return t.insts }

// Duration returns the accumulated time spent generating.
func (t *TimedSource) Duration() time.Duration { return t.dur }
