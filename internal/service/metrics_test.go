package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestLatencyHistSnapshot(t *testing.T) {
	l := NewLatencyHist()
	if s := l.Snapshot(); s.Count != 0 || s.MeanMS != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
	for i := 0; i < 90; i++ {
		l.Observe(time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		l.Observe(100*time.Millisecond, true)
	}
	s := l.Snapshot()
	if s.Count != 100 || s.Errors != 10 {
		t.Errorf("counts: %+v", s)
	}
	// Mean is exact: (90*1 + 10*100)/100 = 10.9ms.
	if s.MeanMS < 10.8 || s.MeanMS > 11.0 {
		t.Errorf("mean %.2fms, want ~10.9ms", s.MeanMS)
	}
	// Quantiles are bucket upper bounds: p50 within 2x of 1ms, p99
	// within 2x of 100ms.
	if s.P50MS < 1 || s.P50MS > 2.1 {
		t.Errorf("p50 %.2fms", s.P50MS)
	}
	if s.P99MS < 100 || s.P99MS > 135 {
		t.Errorf("p99 %.2fms", s.P99MS)
	}
	if s.MaxMS != 100 {
		t.Errorf("max %.2fms", s.MaxMS)
	}
}

func TestLatencyBucketMonotone(t *testing.T) {
	prev := -1
	for _, us := range []uint64{0, 1, 2, 3, 1000, 1 << 20, 1 << 40, 1 << 62} {
		b := latencyBucket(us)
		if b <= 0 || b > latencyBuckets {
			t.Fatalf("bucket %d for %dus outside histogram", b, us)
		}
		if b < prev {
			t.Fatalf("bucket not monotone at %dus", us)
		}
		if ub := bucketUpperUS(b); ub < us {
			t.Fatalf("upper bound %d below observation %d", ub, us)
		}
		prev = b
	}
}

func TestLatencyHistConcurrent(t *testing.T) {
	l := NewLatencyHist()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Observe(time.Duration(j)*time.Microsecond, j%7 == 0)
			}
		}()
	}
	wg.Wait()
	if s := l.Snapshot(); s.Count != 8000 {
		t.Errorf("lost observations: %+v", s)
	}
}

// TestStageMetrics pins the pipeline-stage family: ObserveStages folds
// a tracer's stage timings into the daemon's stage families, which
// surface through Snapshot under the stage names; a CLI-only stage has
// no family.
func TestStageMetrics(t *testing.T) {
	m := NewMetrics()
	m.ObserveStages([]obs.StageTiming{{Name: obs.StageProfile, DurationS: 3e-3}, {Name: obs.StageSweep, DurationS: 1}})
	m.ObserveStages([]obs.StageTiming{{Name: obs.StageProfile, DurationS: 5e-3}})

	tr := obs.NewTracer("t", "local")
	_, sp := tr.StartSpan(context.Background(), obs.StageSimulate)
	sp.End()
	m.ObserveStages(tr.Stages())
	m.ObserveStages(nil) // a request that ran no stage is a no-op

	snap := m.Snapshot(nil, nil)
	if st := snap.Stages[obs.StageProfile]; st.Count != 2 || st.MeanMS <= 0 {
		t.Errorf("profile stage: %+v", st)
	}
	if st := snap.Stages[obs.StageSimulate]; st.Count != 1 {
		t.Errorf("simulate stage: %+v", st)
	}
	if len(snap.Stages) != 2 {
		t.Errorf("unexpected stage families: %+v", snap.Stages)
	}
}

// TestMetricsUnknownEndpointPanics: an endpoint without a family is a
// programming error that fails at construction, not a family created
// on the fly.
func TestMetricsUnknownEndpointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Endpoint on an unknown name did not panic")
		}
	}()
	NewMetrics().Endpoint("/v1/unknown")
}
