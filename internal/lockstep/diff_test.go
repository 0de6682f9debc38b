// Differential suite: lockstep execution must be byte-identical to the
// serial per-point loop for every golden workload personality, every
// profiled depth k=0..2, a 12-point configuration grid spanning the
// trace-driven design space, and every batching shape (chunk sizes 1,
// 2, 7 and the full grid). "Byte-identical" is taken literally — the
// full cpu.Result, including the per-stage occupancy histograms and the
// stall-cause counters, is compared both structurally and as marshalled
// JSON bytes.
package lockstep_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/lockstep"
	"repro/internal/synth"
)

// Small enough to keep 30 (workload, k) cells × 5 grid passes fast on
// one core, large enough that every pipeline structure fills, stalls
// and drains many times.
const (
	diffProfileN = 6_000
	diffTarget   = 2_500
	diffSeed     = 1
)

// diffGrid is the 12-point configuration grid: window sizes from
// cramped to capacious, widths from scalar-ish to the validation cap,
// starved functional units, zeroed branch penalties, alternate
// predictor kinds, shrunken caches, idealisations and in-order issue.
// Every point validates; none affects the synthetic trace bytes.
func diffGrid(t testing.TB) []cpu.Config {
	t.Helper()
	mk := func(mut func(*cpu.Config)) cpu.Config {
		c := cpu.DefaultConfig()
		mut(&c)
		return c
	}
	cfgs := []cpu.Config{
		mk(func(c *cpu.Config) {}), // Table 2 baseline
		mk(func(c *cpu.Config) { c.RUUSize, c.LSQSize = 16, 8 }),
		mk(func(c *cpu.Config) { c.RUUSize, c.LSQSize = 256, 128 }),
		mk(func(c *cpu.Config) { c.IFQSize = 4 }),
		mk(func(c *cpu.Config) {
			c.DecodeWidth, c.IssueWidth, c.CommitWidth = 4, 4, 4
		}),
		mk(func(c *cpu.Config) {
			c.FetchSpeed, c.DecodeWidth, c.IssueWidth, c.CommitWidth = 1, 2, 2, 2
			c.IFQSize = 8
		}),
		mk(func(c *cpu.Config) { c.IssueWidth, c.CommitWidth = 16, 16 }),
		mk(func(c *cpu.Config) { c.IntALUs, c.LoadStore = 1, 1 }),
		mk(func(c *cpu.Config) { c.MispredictExtra, c.RedirectPenalty = 0, 0 }),
		mk(func(c *cpu.Config) { c.Bpred.Kind = bpred.KindStaticNotTaken }),
		mk(func(c *cpu.Config) { c.PerfectCaches, c.PerfectBpred = true, true }),
		mk(func(c *cpu.Config) { c.InOrder = true }),
	}
	for i, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatalf("grid point %d invalid: %v", i, err)
		}
	}
	return cfgs
}

// reduceWorkload profiles one workload at depth k and reduces it to the
// generator shared by both execution styles.
func reduceWorkload(t testing.TB, w core.Workload, k int) *synth.Reduced {
	t.Helper()
	g, err := core.Profile(cpu.DefaultConfig(), w.Stream(diffSeed, 0, diffProfileN), core.ProfileOptions{K: k})
	if err != nil {
		t.Fatalf("%s k=%d: profile: %v", w.Name, k, err)
	}
	red, err := synth.Reduce(g, synth.Options{R: core.ReductionFor(g, diffTarget), Seed: diffSeed})
	if err != nil {
		t.Fatalf("%s k=%d: reduce: %v", w.Name, k, err)
	}
	return red
}

// serialResults is the reference path: one pipeline per configuration,
// each over its own freshly generated trace.
func serialResults(cfgs []cpu.Config, red *synth.Reduced) []cpu.Result {
	out := make([]cpu.Result, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = cpu.NewTraceDriven(cfg, red.NewTrace(diffSeed)).Run()
	}
	return out
}

// lockstepChunked simulates the grid in contiguous lockstep batches of
// the given size, each batch sharing one generation pass.
func lockstepChunked(cfgs []cpu.Config, red *synth.Reduced, size int) []cpu.Result {
	out := make([]cpu.Result, 0, len(cfgs))
	for start := 0; start < len(cfgs); start += size {
		end := start + size
		if end > len(cfgs) {
			end = len(cfgs)
		}
		out = append(out, lockstep.Simulate(cfgs[start:end], red.NewTrace(diffSeed))...)
	}
	return out
}

func requireIdentical(t *testing.T, label string, i int, got, want cpu.Result) {
	t.Helper()
	if got == want {
		return
	}
	gj, _ := json.MarshalIndent(got, "", " ")
	wj, _ := json.MarshalIndent(want, "", " ")
	t.Fatalf("%s: grid point %d diverged from serial\nlockstep: %s\nserial:   %s", label, i, gj, wj)
}

func TestLockstepMatchesSerial(t *testing.T) {
	cfgs := diffGrid(t)
	for _, w := range core.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for k := 0; k <= 2; k++ {
				red := reduceWorkload(t, w, k)
				want := serialResults(cfgs, red)
				for _, size := range []int{1, 2, 7, len(cfgs)} {
					label := fmt.Sprintf("k=%d chunk=%d", k, size)
					got := lockstepChunked(cfgs, red, size)
					for i := range cfgs {
						requireIdentical(t, label, i, got[i], want[i])
					}
					// Belt and braces: the marshalled bytes, too. A Result
					// is a flat value struct so == should imply this, but
					// byte identity is the contract being sold.
					gj, err := json.Marshal(got)
					if err != nil {
						t.Fatal(err)
					}
					wj, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gj, wj) {
						t.Fatalf("%s: JSON bytes differ", label)
					}
				}
			}
		})
	}
}

// TestLockstepPlanMatchesSerial drives the same grid through the
// planner exactly as the service layer does — one cohort split into
// groups for various worker counts — and requires the union of group
// results to match the serial reference point-for-point.
func TestLockstepPlanMatchesSerial(t *testing.T) {
	cfgs := diffGrid(t)
	w := core.Workloads()[0]
	for k := 0; k <= 2; k++ {
		red := reduceWorkload(t, w, k)
		want := serialResults(cfgs, red)
		key := lockstep.Key{K: k, R: 1, Seed: diffSeed}
		pts := make([]lockstep.Point, len(cfgs))
		for i := range cfgs {
			pts[i] = lockstep.Point{Key: key, Index: i}
		}
		for _, parallel := range []int{1, 2, 5, len(cfgs), 64} {
			got := make([]cpu.Result, len(cfgs))
			for _, grp := range lockstep.Plan(pts, lockstep.Options{Parallel: parallel}) {
				batch := make([]cpu.Config, len(grp.Indices))
				for bi, i := range grp.Indices {
					batch[bi] = cfgs[i]
				}
				for bi, res := range lockstep.Simulate(batch, red.NewTrace(diffSeed)) {
					got[grp.Indices[bi]] = res
				}
			}
			for i := range cfgs {
				requireIdentical(t, fmt.Sprintf("k=%d parallel=%d", k, parallel), i, got[i], want[i])
			}
		}
	}
}

// TestSimulateDegenerateBatches pins the contract edges: an empty batch
// returns nil and a singleton batch equals the plain serial run.
func TestSimulateDegenerateBatches(t *testing.T) {
	if res := lockstep.Simulate(nil, nil); res != nil {
		t.Fatalf("empty batch returned %v, want nil", res)
	}
	red := reduceWorkload(t, core.Workloads()[0], 1)
	cfg := cpu.DefaultConfig()
	want := cpu.NewTraceDriven(cfg, red.NewTrace(diffSeed)).Run()
	got := lockstep.Simulate([]cpu.Config{cfg}, red.NewTrace(diffSeed))
	if len(got) != 1 {
		t.Fatalf("singleton batch returned %d results", len(got))
	}
	requireIdentical(t, "singleton", 0, got[0], want)
}
