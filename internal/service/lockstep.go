package service

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/lockstep"
	"repro/internal/obs"
)

// The local executor routes design points through the lockstep batch
// simulator (internal/lockstep): pending points are planned into
// cohorts — every point of one Sweep call shares (graph, R, seed), the
// full trace identity, so they always form a single cohort — and each
// cohort into contiguous groups sized for the pool. One group is one
// pool job: a single reduction + trace-generation pass drives all of
// the group's pipeline instances in lockstep, so a sweep's cost
// approaches one generation plus a per-point simulation increment
// instead of a full generation per point. A group of one is the serial
// StatSim path (lockstep.Simulate runs a lone configuration with no
// spool in between).
//
// Byte-identity with the per-point path is preserved because each
// point's metrics are a pure function of (point config, graph, R,
// seed) — independent of group membership, group size, worker count and
// completion order. The per-point boundaries the serial engine
// guaranteed survive inside the group loop: the context is observed and
// the SiteSweepJob fault site fires once per point, before that point
// joins its batch, so cancellation and injected failures keep per-point
// granularity.

// simulate runs the given grid indices on the pool under the lockstep
// plan and commits each group's completed points as one batch (from the
// worker that finished the group). Points whose fault-site evaluation
// fails are skipped and reported as an error after the surviving points
// of the group have committed, so a partial crash journals everything
// that did finish.
//
// Each completed point gets one cost-ledger entry: the plan's group
// index is its cohort ID, and the group's wall time is split evenly
// across its points (the lockstep engine advances all of a group's
// pipelines together, so an even split is the faithful attribution).
// Each group also records one "cohort" span on the request's tracer, so
// the assembled trace shows where a sweep's simulation time went group
// by group.
func (sw *sweepRun) simulate(ctx context.Context, indices []int) error {
	pts := make([]lockstep.Point, len(indices))
	key := lockstep.Key{K: sw.g.K, R: sw.r, Seed: sw.seed}
	for k, i := range indices {
		pts[k] = lockstep.Point{Key: key, Index: i}
	}
	pool := sw.opts.Pool
	plan := lockstep.Plan(pts, lockstep.Options{Parallel: pool.Stats().Workers})
	tracer := obs.TracerFromContext(ctx)
	_, err := Map(ctx, pool, len(plan), func(ctx context.Context, gi int) (struct{}, error) {
		groupStart := time.Now()
		_, span := tracer.StartSpan(ctx, "cohort")
		span.Annotate("cohort", strconv.Itoa(gi))
		span.Annotate("points", strconv.Itoa(len(plan[gi].Indices)))
		defer span.End()
		var firstErr error
		batch := make([]int, 0, len(plan[gi].Indices))
		for _, i := range plan[gi].Indices {
			// A design point takes long enough that queued work draining
			// after cancellation is real waste: bail at each point
			// boundary so a disconnected client stops the sweep promptly.
			if err := ctx.Err(); err != nil {
				return struct{}{}, err
			}
			if err := sw.opts.Faults.Fire(SiteSweepJob); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("point %s: %w", sw.points[i], err)
				}
				continue
			}
			batch = append(batch, i)
		}
		if len(batch) == 0 {
			return struct{}{}, firstErr
		}
		cfgs := make([]cpu.Config, len(batch))
		for k, i := range batch {
			cfgs[k] = sw.points[i].Apply(sw.base)
		}
		ms, err := core.SimulateBatch(cfgs, sw.g, sw.r, sw.seed)
		if err != nil {
			return struct{}{}, fmt.Errorf("points %s..%s: %w", sw.points[batch[0]], sw.points[batch[len(batch)-1]], err)
		}
		sw.commitSimulated(batch, ms)
		wall := time.Since(groupStart).Seconds() / float64(len(batch))
		for _, i := range batch {
			sw.opts.ledger.record(i, TierSimulated, "", gi, wall, false)
		}
		return struct{}{}, firstErr
	})
	return err
}
