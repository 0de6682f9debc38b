package synth

import (
	"testing"

	"repro/internal/trace"
)

// TestTraceSourceZeroAllocSteadyState pins the zero-allocation property
// of the random walk: Reduce precomputes the alias-backed CDFs and the
// maximum block/out-degree, NewTrace preallocates every per-walk
// buffer, so after warm-up NextBatch does not allocate.
// Skipped under -race: the race runtime instruments allocations.
func TestTraceSourceZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	g := profileBenchmark(t, 5, 80, 200_000, 1)
	r, err := Reduce(g, Options{R: 4})
	if err != nil {
		t.Fatal(err)
	}

	ts := r.NewTrace(2)
	buf := make([]trace.DynInst, 128)
	for i := 0; i < 8; i++ {
		if ts.NextBatch(buf) == 0 {
			t.Fatal("trace ended during warm-up")
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		if ts.NextBatch(buf) == 0 {
			t.Fatal("trace ended mid-measurement")
		}
	}); a != 0 {
		t.Errorf("TraceSource.NextBatch: %v allocs/run in steady state, want 0", a)
	}
}
