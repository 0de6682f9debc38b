// Package lockstep is the batch simulation engine behind cheap
// design-space sweeps: one synthetic-trace stream drives N pipeline
// instances chunk-by-chunk in lockstep, so the cost of a sweep
// approaches one trace generation plus a small per-configuration
// increment (the paper's §4.6 amortisation argument, pushed from
// "one profile, many simulations" down to "one trace, many timings").
//
// The engine rests on three facts:
//
//  1. the synthetic trace is a pure function of (graph, R, seed) — the
//     microarchitecture configuration never influences its bytes;
//  2. a trace-driven pipeline's Result is a pure function of its
//     configuration and the delivered stream bytes;
//  3. cpu.Pipeline.RunToFetch executes the identical cycle kernel as
//     cpu.Pipeline.Run, for any segmentation of the run.
//
// Together these make lockstep execution byte-identical to the serial
// per-point loop by construction; the differential and fuzz suites in
// this package enforce it empirically.
//
// Scheduling: instances share one trace.Spool and read it in place,
// each through its own cursor. Each round the driver picks the instance
// with the lowest fetch target and advances it by one chunk
// (trace.DefaultBatchSize), so targets never spread further than a
// chunk apart and every instance reads the same cache-resident bytes.
// Each pipeline releases the stream as it commits, and the spool drops
// what lies below every open cursor's release point, so the window
// stays a few chunks wide without any trimming by the driver.
package lockstep

import (
	"repro/internal/cpu"
	"repro/internal/trace"
)

// Simulate runs one trace-driven pipeline per configuration over a
// single generation pass of src, in lockstep, and returns the per-
// configuration results in input order. A batch of one degrades to
// exactly the serial path (cpu.NewTraceDriven(...).Run()).
func Simulate(cfgs []cpu.Config, src trace.Source) []cpu.Result {
	n := len(cfgs)
	switch n {
	case 0:
		return nil
	case 1:
		return []cpu.Result{cpu.NewTraceDriven(cfgs[0], src).Run()}
	}

	sp := trace.NewSpool(src)
	pipes := make([]*cpu.Pipeline, n)
	curs := make([]*trace.Cursor, n)
	for i := range cfgs {
		curs[i] = sp.NewCursor()
		pipes[i] = cpu.NewTraceDrivenCursor(cfgs[i], curs[i])
	}

	// Per-instance scheduling state, struct-of-arrays: the selection
	// loop touches only these two dense slices, not the pipelines.
	target := make([]uint64, n) // next fetch-frontier goal per instance
	done := make([]bool, n)
	results := make([]cpu.Result, n)

	const stride = uint64(trace.DefaultBatchSize)
	for i := range target {
		target[i] = stride
	}
	live := n
	for live > 0 {
		// Advance the laggard: the instance with the lowest target.
		best := -1
		for i := 0; i < n; i++ {
			if !done[i] && (best < 0 || target[i] < target[best]) {
				best = i
			}
		}
		if pipes[best].RunToFetch(target[best]) {
			done[best] = true
			live--
			results[best] = pipes[best].Finalize()
			curs[best].Close()
		} else {
			target[best] += stride
		}
	}
	return results
}
