package service

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/lockstep"
	"repro/internal/obs"
	"repro/internal/sfg"
)

// The sweep engines below route design points through the lockstep
// batch simulator (internal/lockstep): pending points are planned into
// cohorts — every point of one SweepWithJournal call shares (graph, R,
// seed), the full trace identity, so they always form a single cohort —
// and each cohort into contiguous groups sized for the pool. One group
// is one pool job: a single reduction + trace-generation pass drives
// all of the group's pipeline instances in lockstep, so a sweep's cost
// approaches one generation plus a per-point simulation increment
// instead of a full generation per point.
//
// Byte-identity with the per-point path is preserved because each
// point's metrics are a pure function of (point config, graph, R,
// seed) — independent of group membership, group size, worker count and
// completion order. The per-point boundaries the serial engine
// guaranteed survive inside the group loop: the context is observed and
// the SiteSweepJob fault site fires once per point, before that point
// joins its batch, so cancellation and injected failures keep per-point
// granularity.

// runPendingBatched simulates the given grid indices on the pool using
// the lockstep plan, calling report once per group with the group's
// completed points (ms[k] belongs to indices[k]; called from the worker
// that finished the group; indices are disjoint across calls), so each
// group is one durable commit downstream. Points whose fault-site
// evaluation fails are skipped and reported as an error after the
// surviving points of the group have completed, so a partial crash
// journals everything that did finish — exactly like the per-point
// engine it replaces.
//
// noteCost, when non-nil, receives one cost observation per completed
// point: the plan's group index is the point's cohort ID, and the
// group's wall time is split evenly across its points (the lockstep
// engine advances all of a group's pipelines together, so an even split
// is the faithful attribution). Each cohort also records one "cohort"
// span on the request's tracer, so the assembled trace shows where a
// sweep's simulation time went group by group.
func runPendingBatched(ctx context.Context, pool *Pool, faults *fault.Injector, base cpu.Config, g *sfg.Graph, points []SweepPoint, indices []int, r, seed uint64, report func(indices []int, ms []core.Metrics), noteCost func(index, cohort int, wallS float64)) error {
	pts := make([]lockstep.Point, len(indices))
	key := lockstep.Key{K: g.K, R: r, Seed: seed}
	for k, i := range indices {
		pts[k] = lockstep.Point{Key: key, Index: i}
	}
	plan := lockstep.Plan(pts, lockstep.Options{Parallel: pool.Stats().Workers})
	tracer := obs.TracerFromContext(ctx)
	_, err := Map(ctx, pool, len(plan), func(ctx context.Context, gi int) (struct{}, error) {
		groupStart := time.Now()
		_, span := tracer.StartSpan(ctx, "cohort")
		span.Annotate("cohort", strconv.Itoa(gi))
		span.Annotate("points", strconv.Itoa(len(plan[gi].Indices)))
		defer span.End()
		finish := func(batch []int) {
			if noteCost == nil || len(batch) == 0 {
				return
			}
			wall := time.Since(groupStart).Seconds() / float64(len(batch))
			for _, i := range batch {
				noteCost(i, gi, wall)
			}
		}
		var firstErr error
		batch := make([]int, 0, len(plan[gi].Indices))
		for _, i := range plan[gi].Indices {
			// A design point takes long enough that queued work draining
			// after cancellation is real waste: bail at each point
			// boundary so a disconnected client stops the sweep promptly.
			if err := ctx.Err(); err != nil {
				return struct{}{}, err
			}
			if err := faults.Fire(SiteSweepJob); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("point %s: %w", points[i], err)
				}
				continue
			}
			batch = append(batch, i)
		}
		switch len(batch) {
		case 0:
		case 1:
			i := batch[0]
			m, err := simulatePoint(base, g, points, i, r, seed)
			if err != nil {
				return struct{}{}, fmt.Errorf("point %s: %w", points[i], err)
			}
			report(batch, []core.Metrics{m})
			finish(batch)
		default:
			cfgs := make([]cpu.Config, len(batch))
			for k, i := range batch {
				cfgs[k] = points[i].Apply(base)
			}
			ms, err := core.SimulateBatch(cfgs, g, r, seed)
			if err != nil {
				return struct{}{}, fmt.Errorf("points %s..%s: %w", points[batch[0]], points[batch[len(batch)-1]], err)
			}
			report(batch, ms)
			finish(batch)
		}
		return struct{}{}, firstErr
	})
	return err
}
