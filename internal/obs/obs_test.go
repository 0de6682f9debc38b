package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// fakeClock advances a fixed step per reading, making span durations
// deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// TestNilRecorderNoOps pins the disabled state of the span recorder: on
// a nil *Tracer the stage entry points no-op and report nothing.
func TestNilRecorderNoOps(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), StageSimulate)
	sp.EndInstructions(123) // must not panic
	sp.End()
	tr.Record(ctx, StageGenerate, time.Now(), time.Second, 5)
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer returned spans: %v", got)
	}
	if got := tr.Stages(); got != nil {
		t.Fatalf("nil tracer returned stages: %v", got)
	}
	var m Manifest
	m.FillStages(tr)
	if m.Stages != nil || m.WallTimeS != 0 || m.TraceID != "" {
		t.Fatalf("nil tracer filled the manifest: %+v", m)
	}
}

// TestNilSpanStartAllocates pins the cost of a disabled stage span: on
// a nil *Tracer, starting a stage span and ending it with an
// instruction count allocates nothing.
func TestNilSpanStartAllocates(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := tr.StartSpan(ctx, StageSimulate)
		sp.EndInstructions(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled span start/end allocates %v per run, want 0", allocs)
	}
}

// TestRecorderSpans pins what the span recorder (the tracer) keeps for
// a stage: the instruction count, the node and trace stamps, and the
// stage's inst/s.
func TestRecorderSpans(t *testing.T) {
	tr := NewTracer("t1", "local")
	ctx, root := tr.StartSpan(context.Background(), "statsim compare")
	_, sp := tr.StartSpan(ctx, StageProfile)
	sp.EndInstructions(3000)
	tr.Record(ctx, StageReduce, time.Unix(5, 0), time.Second, 0)
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	prof, red := spans[0], spans[1]
	if prof.Name != StageProfile || prof.Instructions != 3000 || prof.DurationS < 0 {
		t.Fatalf("profile span %+v", prof)
	}
	if red.Name != StageReduce || red.DurationS != 1 || red.StartUnixNS != 5e9 {
		t.Fatalf("externally timed span %+v", red)
	}
	for _, s := range spans[:2] {
		if s.ParentID != spans[2].SpanID || s.TraceID != "t1" || s.Node != "local" {
			t.Fatalf("stage span not stamped under the root: %+v", s)
		}
	}

	tr = NewTracer("t2", "local")
	tr.Import([]TraceSpan{
		{SpanID: "p", Name: StageProfile, Node: "local", DurationS: 1, Instructions: 3000},
		{SpanID: "s", Name: StageSimulate, Node: "local", DurationS: 1},
	})
	st := tr.Stages()
	if len(st) != 2 || st[0].Name != StageProfile || st[1].Name != StageSimulate {
		t.Fatalf("stages %+v", st)
	}
	if st[0].DurationS != 1 || st[0].InstPerSec != 3000 {
		t.Fatalf("profile timing %+v, want 1s at 3000 inst/s", st[0])
	}
	if st[1].InstPerSec != 0 {
		t.Fatalf("instruction-less stage inst/s %v, want 0", st[1].InstPerSec)
	}
}

// TestStageTotalsAggregate pins Tracer.Stages: per-stage sums in
// pipeline order, self time (a stage less the stage spans directly
// under it), and only this node's stage spans counting.
func TestStageTotalsAggregate(t *testing.T) {
	tr := NewTracer("t", "local")
	tr.Import([]TraceSpan{
		{SpanID: "h", Name: "http /v1/simulate", Node: "local", DurationS: 9},
		{SpanID: "g1", ParentID: "s1", Name: StageGenerate, Node: "local", DurationS: 0.5, Instructions: 10},
		{SpanID: "s1", ParentID: "h", Name: StageSimulate, Node: "local", DurationS: 1.5, Instructions: 10},
		{SpanID: "c", ParentID: "s2", Name: "cohort", Node: "local", DurationS: 1},
		{SpanID: "s2", ParentID: "h", Name: StageSimulate, Node: "local", DurationS: 1.5, Instructions: 20},
		{SpanID: "r", ParentID: "h", Name: StageReduce, Node: "local", DurationS: 0.25},
		// A fanout peer's imported stage counts on the peer, not here.
		{SpanID: "p", ParentID: "h", Name: StageProfile, Node: "peer", DurationS: 7, Instructions: 99},
		{SpanID: "pg", ParentID: "s2", Name: StageGenerate, Node: "peer", DurationS: 1},
	})
	st := tr.Stages()
	if len(st) != 3 || st[0].Name != StageReduce || st[1].Name != StageGenerate || st[2].Name != StageSimulate {
		t.Fatalf("stages %+v, want reduce, generate, simulate", st)
	}
	if st[0].DurationS != 0.25 {
		t.Errorf("reduce %v s, want 0.25", st[0].DurationS)
	}
	if st[1].DurationS != 0.5 || st[1].Instructions != 10 {
		t.Errorf("generate %+v, want 0.5 s over 10 insts", st[1])
	}
	// (1.5 - 0.5) + 1.5: generate is carved out of its parent, the
	// cohort span is part of its parent's work.
	if st[2].DurationS != 2.5 || st[2].Instructions != 30 {
		t.Errorf("simulate %+v, want 2.5 s over 30 insts", st[2])
	}
	var m Manifest
	m.FillStages(tr)
	if m.WallTimeS != 3.25 || m.TraceID != "t" {
		t.Errorf("manifest wall %v trace %q, want 3.25 and t", m.WallTimeS, m.TraceID)
	}
}

// TestRecorderConcurrentUse records stage spans from many goroutines
// at once, as sweep workers do.
func TestRecorderConcurrentUse(t *testing.T) {
	tr := NewTracer("t", "local")
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, sp := tr.StartSpan(ctx, StageSimulate)
				sp.EndInstructions(1)
			}
		}()
	}
	wg.Wait()
	st := tr.Stages()
	if len(st) != 1 || st[0].Instructions != 800 {
		t.Fatalf("stages %+v, want 800 simulate instructions", st)
	}
}

type countSource struct{ n int }

func (c *countSource) Next(d *trace.DynInst) bool {
	if c.n == 0 {
		return false
	}
	c.n--
	return true
}

func TestTimedSource(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	ts := NewTimedSource(&countSource{n: 5})
	ts.now = clock.now
	var d trace.DynInst
	for ts.Next(&d) {
	}
	if ts.Instructions() != 5 {
		t.Fatalf("timed source counted %d instructions, want 5", ts.Instructions())
	}
	// 6 Next calls (5 hits + 1 EOF), 1ms per call under the fake clock.
	if ts.Duration() != 6*time.Millisecond {
		t.Fatalf("timed source duration %v, want 6ms", ts.Duration())
	}
}

func TestFingerprintStability(t *testing.T) {
	type cfg struct{ A, B int }
	f1 := Fingerprint(cfg{1, 2})
	f2 := Fingerprint(cfg{1, 2})
	f3 := Fingerprint(cfg{1, 3})
	if f1 != f2 {
		t.Fatalf("identical values fingerprint differently: %s vs %s", f1, f2)
	}
	if f1 == f3 {
		t.Fatalf("different values share fingerprint %s", f1)
	}
	if len(f1) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex chars", f1)
	}
}

func TestManifestJSON(t *testing.T) {
	tr := NewTracer("t", "local")
	tr.Import([]TraceSpan{
		{SpanID: "p", Name: StageProfile, Node: "local", DurationS: 1, Instructions: 1000},
		{SpanID: "g", ParentID: "s", Name: StageGenerate, Node: "local", DurationS: 0.25, Instructions: 500},
		{SpanID: "s", Name: StageSimulate, Node: "local", DurationS: 1.25, Instructions: 500},
	})

	m := NewManifest("statsim test")
	m.ConfigFingerprint = Fingerprint(struct{ X int }{1})
	m.Workload = "gzip"
	m.K = 1
	m.Seed = 1
	m.FillStages(tr)

	if len(m.Stages) != 3 {
		t.Fatalf("got %d stages, want 3: %+v", len(m.Stages), m.Stages)
	}
	// Pipeline order regardless of recording order.
	if m.Stages[0].Name != StageProfile || m.Stages[1].Name != StageGenerate || m.Stages[2].Name != StageSimulate {
		t.Fatalf("stage order wrong: %+v", m.Stages)
	}
	if m.WallTimeS != 2.25 {
		t.Fatalf("wall time %v, want 2.25", m.WallTimeS)
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, buf.String())
	}
	if back.Version != ManifestVersion || back.Workload != "gzip" || len(back.Stages) != 3 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if !strings.Contains(buf.String(), "config_fingerprint") {
		t.Fatal("manifest JSON missing config_fingerprint")
	}
}
