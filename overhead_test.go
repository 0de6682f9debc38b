package statsim

import (
	"context"
	"slices"
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
// times a stage), in interleaved pairs that alternate which side runs
// first, so a burst of load from a neighbour on a shared host slows
// both halves of a pair. Each pair's traced time is held to a budget
// of its own plain time plus 5%, with 2ms absolute slack so timer
// granularity cannot bite on fast runs, and the test fails when the
// median pair is over budget: a lasting slowdown moves every pair,
// while one lucky or unlucky repetition moves only its own.
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
	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}

	// Warm up both paths once so neither pays first-run costs.
	runPlain()
	runTraced()

	const reps = 7
	var over [reps]time.Duration // traced time less its pair's budget
	for i := range over {
		var plain, traced time.Duration
		if i%2 == 0 {
			plain = timed(runPlain)
			traced = timed(runTraced)
		} else {
			traced = timed(runTraced)
			plain = timed(runPlain)
		}
		budget := plain + plain/20 + 2*time.Millisecond
		over[i] = traced - budget
		t.Logf("pair %d: plain %v, nil-traced %v (budget %v)", i, plain, traced, budget)
	}
	slices.Sort(over[:])
	if median := over[reps/2]; median > 0 {
		t.Errorf("disabled obs path too slow: the median pair is %v over its budget", median)
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
