package statsim

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestObsDisabledOverhead guards the observability layer's core
// promise: with no tracer, a stage span costs nothing measurable —
// under 5% on the simulate path. The comparison runs the same
// materialised trace through the plain entry point and through the
// same call inside a nil-tracer stage span (the way every front end
// times a stage), taking the minimum of several repetitions of each so
// scheduler noise cancels; a small absolute slack keeps the ratio
// meaningful when a run is fast enough for timer granularity to bite.
// The two sides' repetitions are interleaved, alternating which runs
// first, so a burst of load from a neighbour on a shared host slows
// both sides instead of covering every repetition of one.
func TestObsDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	w, err := LoadWorkload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	g, err := Profile(cfg, w.Stream(1, 0, 100_000), ProfileOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSyntheticTrace(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	insts := trace.Collect(src, 0)

	ctx := context.Background()
	runPlain := func() { core.SimulateTrace(cfg, trace.NewSliceSource(insts)) }
	runTraced := func() {
		_, sp := obs.TracerFromContext(ctx).StartSpan(ctx, obs.StageSimulate)
		m := core.SimulateTrace(cfg, trace.NewSliceSource(insts))
		sp.EndInstructions(m.Instructions)
	}
	timed := func(f func(), best *time.Duration) {
		start := time.Now()
		f()
		if d := time.Since(start); d < *best {
			*best = d
		}
	}

	// Warm up both paths once so neither pays first-run costs.
	runPlain()
	runTraced()

	const reps = 7
	plain, traced := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < reps; i++ {
		if i%2 == 0 {
			timed(runPlain, &plain)
			timed(runTraced, &traced)
		} else {
			timed(runTraced, &traced)
			timed(runPlain, &plain)
		}
	}

	// 5% relative budget plus 2ms absolute slack for timer jitter on
	// very fast runs.
	budget := plain + plain/20 + 2*time.Millisecond
	t.Logf("plain %v, nil-traced %v (budget %v)", plain, traced, budget)
	if traced > budget {
		t.Errorf("disabled obs path too slow: %v vs plain %v (budget %v)", traced, plain, budget)
	}
}

// TestTracingDisabledZeroAllocs pins the tracing layer's disabled-path
// contract: with no tracer in context (a nil *Tracer), the span entry
// points that sit on the sweep and stage hot paths — StartSpan,
// Annotate, End, EndInstructions, the externally timed Record, Import,
// Stages, plus the context lookups — must allocate nothing. A single
// allocation per span would multiply across every cohort of every
// sweep on every untraced caller.
func TestTracingDisabledZeroAllocs(t *testing.T) {
	ctx := context.Background()
	var tr *obs.Tracer
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		tr2 := obs.TracerFromContext(ctx)
		c2, span := tr2.StartSpan(ctx, "cohort")
		span.Annotate("k", "v")
		span.End()
		c3, stage := tr2.StartSpan(c2, obs.StageSimulate)
		tr2.Record(c3, obs.StageGenerate, start, time.Millisecond, 10)
		stage.EndInstructions(10)
		tr.Import(nil)
		_ = tr.Stages()
		_ = obs.SpanIDFromContext(c2)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates: %.1f allocs/op, want 0", allocs)
	}
}
