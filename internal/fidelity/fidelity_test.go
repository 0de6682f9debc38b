package fidelity

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
)

// testPool is a minimal Pool: a buffered-channel semaphore, enough to
// exercise the engine's parallel paths without importing the service
// package (which imports this one).
type testPool struct{ sem chan struct{} }

func newTestPool(n int) *testPool { return &testPool{sem: make(chan struct{}, n)} }

func (p *testPool) Do(ctx context.Context, fn func(context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
		return fn(ctx)
	case <-ctx.Done():
		return ctx.Err()
	}
}

func testOpts() Options {
	return Options{
		N:        200_000,
		Interval: 10_000,
		K:        1,
		Seed:     1,
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := (Options{}).withDefaults(); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := (Options{N: 100, Interval: 1000}).withDefaults(); err == nil {
		t.Error("interval longer than stream accepted")
	}
	if _, err := (Options{N: 100_000, Confidence: 0.5}).withDefaults(); err == nil {
		t.Error("unsupported confidence accepted")
	}
	o, err := (Options{N: 100_000}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Interval != 5000 || o.K != 0 || o.Seed != 1 || o.SimSeed != 1 || o.MaxK != 10 ||
		o.Confidence != 0.95 || o.TargetCI != 0.02 || o.MaxDetailedFrac != 0.25 {
		t.Errorf("defaults: %+v", o)
	}
	if maxWarmup != 2000 || cheapSeeds != 3 || samplesPerStratum != 3 || minCheapTarget != 2000 ||
		cheapBias != 0.15 || detailedBias != 0.015 {
		t.Error("the engine's sampling and error constants changed")
	}
	// The detailed warm window is min(Interval/2, 2,000, interval start).
	for _, tc := range []struct {
		interval uint64
		iv       int
		want     uint64
	}{{5000, 0, 0}, {5000, 1, 2000}, {1000, 1, 500}, {1000, 3, 500}, {3000, 1, 1500}} {
		e := &Engine{opts: Options{Interval: tc.interval}}
		if got := e.newSample(0, tc.iv, func(int) uint64 { return tc.interval }).warm; got != tc.want {
			t.Errorf("interval %d of length %d warms %d instructions, want %d", tc.iv, tc.interval, got, tc.want)
		}
	}
}

func TestEngineRejectsLocalityChange(t *testing.T) {
	cfg := cpu.DefaultConfig()
	w, err := core.LoadWorkload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(context.Background(), nil, cfg, w, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Hier.L1D.SizeBytes *= 2
	if _, err := e.Run(context.Background(), nil, bad); err == nil {
		t.Error("config with different cache hierarchy accepted")
	}
	// Window/width changes keep the profiled locality structures and
	// must be accepted — that is the sweep-reuse contract.
	ok := cfg
	ok.RUUSize *= 2
	if _, err := e.Run(context.Background(), nil, ok); err != nil {
		t.Errorf("window-only change rejected: %v", err)
	}
}

func TestRunBudgetAndReporting(t *testing.T) {
	cfg := cpu.DefaultConfig()
	w, err := core.LoadWorkload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	pool := newTestPool(4)
	e, err := New(context.Background(), pool, cfg, w, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetailedInstructions > res.MaxDetailedInstructions {
		t.Errorf("budget exceeded: %d > %d", res.DetailedInstructions, res.MaxDetailedInstructions)
	}
	if res.DetailedFrac > 0.25 {
		t.Errorf("detailed fraction %v > 0.25", res.DetailedFrac)
	}
	if res.IPC <= 0 || res.IPCLo <= 0 || res.IPCHi < res.IPCLo || res.IPC < res.IPCLo || res.IPC > res.IPCHi {
		t.Errorf("malformed IPC interval: %v [%v, %v]", res.IPC, res.IPCLo, res.IPCHi)
	}
	if res.EPC <= 0 || res.EPCLo < 0 || res.EPCHi < res.EPC {
		t.Errorf("malformed EPC interval: %v [%v, %v]", res.EPC, res.EPCLo, res.EPCHi)
	}
	var wsum float64
	for _, s := range res.Strata {
		wsum += s.Weight
		if s.Members == 0 || len(s.Sampled) == 0 || len(s.Sampled) > 3 {
			t.Errorf("bad stratum report: %+v", s)
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("stratum weights sum to %v", wsum)
	}
	for i, esc := range res.Escalations {
		if !res.Strata[esc.Stratum].Detailed {
			t.Errorf("escalation %d targets stratum %d not marked detailed", i, esc.Stratum)
		}
		if esc.HalfWidthAfter >= esc.HalfWidthBefore {
			t.Errorf("escalation %d did not narrow the interval: %v -> %v",
				i, esc.HalfWidthBefore, esc.HalfWidthAfter)
		}
	}
	m := res.Manifest()
	if m.Strata != len(res.Strata) || m.Escalations != len(res.Escalations) ||
		m.DetailedInsts != res.DetailedInstructions || m.IPCLo != res.IPCLo {
		t.Errorf("manifest block disagrees with result: %+v", m)
	}
}

// TestDeterminism re-runs the engine end to end — with different pool
// widths — and requires byte-identical JSON: same CI width, same
// escalation order, same estimates.
func TestDeterminism(t *testing.T) {
	cfg := cpu.DefaultConfig()
	w, err := core.LoadWorkload("vpr")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		var pool Pool
		if workers > 0 {
			pool = newTestPool(workers)
		}
		e, err := New(context.Background(), pool, cfg, w, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background(), pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := run(0), run(1), run(8)
	if string(a) != string(b) || string(a) != string(c) {
		t.Errorf("results differ across pool widths:\nserial: %s\n1-wide: %s\n8-wide: %s", a, b, c)
	}
}

// TestAccuracyGolden is the acceptance test: on every golden workload
// the engine's 95% confidence interval must contain the IPC of a full
// execution-driven simulation of the covered stream, while running at
// most 25% of it in detailed mode.
func TestAccuracyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-EDS comparison across ten workloads")
	}
	cfg := cpu.DefaultConfig()
	pool := newTestPool(8)
	for _, w := range core.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			opts := testOpts()
			e, err := New(context.Background(), pool, cfg, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(context.Background(), pool, cfg)
			if err != nil {
				t.Fatal(err)
			}
			truth := core.Reference(cfg, w.Stream(opts.Seed, 0, e.Covered())).IPC()
			if truth < res.IPCLo || truth > res.IPCHi {
				t.Errorf("EDS IPC %.4f outside CI [%.4f, %.4f] (estimate %.4f, %d escalations, detailed %.1f%%)",
					truth, res.IPCLo, res.IPCHi, res.IPC, len(res.Escalations), 100*res.DetailedFrac)
			}
			if res.DetailedFrac > 0.25 {
				t.Errorf("detailed fraction %.3f exceeds 0.25", res.DetailedFrac)
			}
			t.Logf("IPC %.4f in [%.4f, %.4f], EDS %.4f, strata %d, escalations %d, detailed %.1f%%, converged %v",
				res.IPC, res.IPCLo, res.IPCHi, truth, len(res.Strata), len(res.Escalations),
				100*res.DetailedFrac, res.Converged)
		})
	}
}
