package lockstep_test

import (
	"sync"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/lockstep"
	"repro/internal/synth"
)

// The fuzzer shares one reduced graph across executions: the property
// under test is indifference to configuration and batching, not to the
// trace, so regenerating the profile per input would only slow the
// search.
var fuzzRed struct {
	sync.Once
	red *synth.Reduced
}

func fuzzReduced(t testing.TB) *synth.Reduced {
	fuzzRed.Do(func() { fuzzRed.red = reduceWorkload(t, core.Workloads()[2], 1) })
	return fuzzRed.red
}

var fuzzKinds = []bpred.Kind{
	bpred.KindHybrid, bpred.KindBimodal, bpred.KindTwoLevelLocal,
	bpred.KindGShare, bpred.KindStaticTaken, bpred.KindStaticNotTaken,
}

// fuzzConfig maps raw fuzz bytes onto a valid cpu.Config: widths in
// 1..MaxWidth (FetchSpeed pinned to 1 so fetch width stays capped),
// window sizes in 1..512 with LSQ <= RUU, a predictor kind, and a
// power-of-two L1D geometry — the knobs the planner promises never
// affect the trace.
func fuzzConfig(ruu, lsq uint16, width, ifq, pred, l1d uint8) cpu.Config {
	c := cpu.DefaultConfig()
	c.RUUSize = 1 + int(ruu)%512
	c.LSQSize = 1 + int(lsq)%512
	if c.LSQSize > c.RUUSize {
		c.LSQSize = c.RUUSize
	}
	w := 1 + int(width)%cpu.MaxWidth
	c.FetchSpeed = 1
	c.DecodeWidth, c.IssueWidth, c.CommitWidth = w, w, w
	c.IFQSize = 1 + int(ifq)%64
	c.Bpred.Kind = fuzzKinds[int(pred)%len(fuzzKinds)]
	c.Hier.L1D.SizeBytes = 1 << (10 + int(l1d)%6)
	c.Hier.L1D.Assoc = 1 << (int(l1d) % 3)
	return c
}

// FuzzLockstepCohort feeds arbitrary configuration deltas and an
// arbitrary cohort split point through the lockstep engine and requires
// the results to match the serial per-point loop exactly — whole-cohort
// and split alike. The seed corpus walks the differential grid's
// dimensions (window extremes, width extremes, predictor kinds, cache
// geometry) plus every split position of a three-point cohort.
func FuzzLockstepCohort(f *testing.F) {
	// Seeds derived from the golden differential grid (diffGrid).
	f.Add(uint16(127), uint16(31), uint16(15), uint16(7), byte(7), byte(31), byte(0), byte(3), byte(1)) // baseline-ish vs cramped windows
	f.Add(uint16(15), uint16(7), uint16(255), uint16(127), byte(0), byte(7), byte(1), byte(0), byte(2)) // cramped vs capacious, scalar width
	f.Add(uint16(255), uint16(255), uint16(255), uint16(255), byte(15), byte(63), byte(2), byte(4), byte(0))
	f.Add(uint16(63), uint16(63), uint16(63), uint16(63), byte(3), byte(3), byte(3), byte(5), byte(1)) // predictor-kind sweep
	f.Add(uint16(1), uint16(1), uint16(511), uint16(511), byte(1), byte(1), byte(4), byte(2), byte(2)) // cache-geometry extremes
	f.Fuzz(func(t *testing.T, ruuA, lsqA, ruuB, lsqB uint16, width, ifq, pred, l1d, split byte) {
		cfgs := []cpu.Config{
			fuzzConfig(ruuA, lsqA, width, ifq, pred, l1d),
			fuzzConfig(ruuB, lsqB, width+7, ifq+13, pred+1, l1d+1),
			cpu.DefaultConfig(),
		}
		for i, c := range cfgs {
			if err := c.Validate(); err != nil {
				t.Fatalf("fuzzConfig %d escaped the validation caps: %v", i, err)
			}
		}
		red := fuzzReduced(t)
		want := serialResults(cfgs, red)

		whole := lockstep.Simulate(cfgs, red.NewTrace(diffSeed))
		for i := range cfgs {
			requireIdentical(t, "whole cohort", i, whole[i], want[i])
		}

		// Split the cohort at an arbitrary point, as the planner would.
		s := 1 + int(split)%(len(cfgs)-1)
		got := append(
			lockstep.Simulate(cfgs[:s], red.NewTrace(diffSeed)),
			lockstep.Simulate(cfgs[s:], red.NewTrace(diffSeed))...)
		for i := range cfgs {
			requireIdentical(t, "split cohort", i, got[i], want[i])
		}
	})
}
