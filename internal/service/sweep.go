package service

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/sfg"
	"repro/internal/surrogate"
)

// SweepPoint is one design point of a microarchitecture sweep: the
// window/width knobs of the paper's §4.6 design space.
type SweepPoint struct {
	RUU    int `json:"ruu"`
	LSQ    int `json:"lsq"`
	Decode int `json:"decode"`
	Issue  int `json:"issue"`
	Commit int `json:"commit"`
}

func (p SweepPoint) String() string {
	return fmt.Sprintf("ruu=%d lsq=%d d=%d i=%d c=%d", p.RUU, p.LSQ, p.Decode, p.Issue, p.Commit)
}

// Apply overlays the point on a base configuration.
func (p SweepPoint) Apply(base cpu.Config) cpu.Config {
	base.RUUSize = p.RUU
	base.LSQSize = p.LSQ
	base.DecodeWidth = p.Decode
	base.IssueWidth = p.Issue
	base.CommitWidth = p.Commit
	return base
}

// PaperGrid returns the paper's 1,792-point design space: RUU in
// {8..128} x LSQ in {4..64} with LSQ <= RUU/2 (28 pairs), and decode,
// issue and commit widths each in {2,4,6,8}.
func PaperGrid() []SweepPoint {
	ruus := []int{8, 16, 32, 48, 64, 96, 128}
	lsqs := []int{4, 8, 16, 24, 32, 48, 64}
	widths := []int{2, 4, 6, 8}
	var pts []SweepPoint
	for _, r := range ruus {
		for _, l := range lsqs {
			if l > r/2 {
				continue
			}
			for _, d := range widths {
				for _, i := range widths {
					for _, c := range widths {
						pts = append(pts, SweepPoint{RUU: r, LSQ: l, Decode: d, Issue: i, Commit: c})
					}
				}
			}
		}
	}
	return pts
}

// QuickGrid is a reduced design space for tests and smoke runs.
func QuickGrid() []SweepPoint {
	var pts []SweepPoint
	for _, r := range []int{16, 64, 128} {
		for _, d := range []int{2, 4, 8} {
			pts = append(pts, SweepPoint{RUU: r, LSQ: r / 2, Decode: d, Issue: d, Commit: d})
		}
	}
	return pts
}

// GridByName resolves the named grids the CLI and daemon accept.
func GridByName(name string) ([]SweepPoint, error) {
	switch name {
	case "quick":
		return QuickGrid(), nil
	case "paper":
		return PaperGrid(), nil
	default:
		return nil, fmt.Errorf("service: unknown grid %q (want quick or paper)", name)
	}
}

// SweepResult is the statistical simulation outcome for one point.
// Served marks points the oracle answered instead of the executors:
// ServedFromStore (an exact durable-store hit — ground truth, Metrics
// populated) or ServedFromSurrogate (a gated prediction — Estimate
// populated, Metrics zero). Freshly simulated and journal-resumed
// points leave Served empty.
type SweepResult struct {
	Point    SweepPoint
	Metrics  core.Metrics
	Served   string
	Estimate *surrogate.Estimate
}

// SweepOptions configures Sweep. The zero value is a plain,
// un-checkpointed sweep on a transient GOMAXPROCS pool.
type SweepOptions struct {
	// Pool runs the simulations (nil: a transient GOMAXPROCS pool).
	Pool *Pool
	// Journal, when non-nil, checkpoints the sweep: points it already
	// holds are returned without simulation, and each later batch of
	// ground truth is appended to it as the batch completes.
	Journal *SweepJournal
	// Faults injects failures at the sweep.job site (nil in production).
	Faults *fault.Injector
	// Progress, when non-nil, is called once per batch after the
	// batch's durable commit, with the batch's grid indices and the
	// sweep's grid-order results. results[i] is final for every i in
	// indices; other entries may still be written by concurrent batches,
	// so read only those. Calls arrive in completion order from the
	// goroutine that finished the batch, and index values are disjoint
	// across calls. Points resumed from the journal are not reported;
	// Sweep returns their count.
	Progress func(indices []int, results []SweepResult)

	// The daemon's tiers, set only by (*Server).sweep: the result
	// oracle and the profile key its records carry; the cluster
	// executor and the specs its sub-requests re-issue; fanout, which
	// marks a sub-sweep another coordinator dispatched; the cost
	// ledger; and the logger for failovers.
	oracle  *oracle
	pkey    ProfileKey
	cluster Cluster
	spec    ProfileSpec
	cfgSpec ConfigSpec
	fanout  bool
	ledger  *costLedger
	log     *slog.Logger
}

// Sweep statistically simulates every design point from one profile —
// the fan-out the paper's §4.6 amortisation argument is about — and
// returns the results in point order plus the number of points resumed
// from the journal. It is the one sweep engine: statsim sweep, the
// statsim.Sweep facade, the DSE experiment and statsimd's /v1/sweep all
// run it. Pending points pass through the tiers in a fixed order:
//
//  1. journal resume;
//  2. exact result-store hits, then gated surrogate estimates (never
//     on a fanout sub-sweep: its coordinator journals the answers as
//     ground truth);
//  3. the executor: the cluster's SweepPending, or local lockstep
//     batching when there is no cluster or the sweep is a fanout
//     sub-sweep.
//
// Tiers 2 and 3 hand their points over in batches — one oracle pass,
// one lockstep group, one remote chunk — and every batch takes the one
// commit path. Which tier, worker or peer answered a point never shows
// in the results: each point's metrics are a deterministic function of
// (point, g, r, seed), so a parallel, resumed or clustered sweep is
// byte-identical to the serial StatSim loop.
func Sweep(ctx context.Context, base cpu.Config, g *sfg.Graph, points []SweepPoint, r, seed uint64, opts SweepOptions) ([]SweepResult, int, error) {
	if opts.Pool == nil {
		opts.Pool = NewPool(0)
		defer opts.Pool.Drain(context.Background())
	}
	// Concurrent simulations sample the shared graph; freezing makes
	// those reads immutable (a no-op if the cache already froze it).
	g.Freeze()
	sw := &sweepRun{opts: opts, base: base, g: g, points: points, r: r, seed: seed,
		results: make([]SweepResult, len(points))}

	var done map[int]core.Metrics
	if opts.Journal != nil {
		done = opts.Journal.Done()
	}
	pending := make([]int, 0, len(points))
	for i := range points {
		if m, ok := done[i]; ok {
			sw.results[i] = SweepResult{Point: points[i], Metrics: m}
			opts.ledger.record(i, TierResumed, "", -1, 0, false)
		} else {
			pending = append(pending, i)
		}
	}
	resumed := len(points) - len(pending)

	pending = sw.serveFromOracle(ctx, pending)

	var err error
	switch {
	case len(pending) == 0:
	case opts.cluster == nil || opts.fanout:
		err = sw.simulate(ctx, pending)
	default:
		err = opts.cluster.SweepPending(ctx, sw.clusterJob(ctx, pending))
	}
	if err != nil {
		return nil, resumed, err
	}
	return sw.results, resumed, nil
}

// sweepRun is one Sweep call's state: its inputs and the grid-order
// results the batches fill.
type sweepRun struct {
	opts    SweepOptions
	base    cpu.Config
	g       *sfg.Graph
	points  []SweepPoint
	r, seed uint64
	results []SweepResult
}

// commit is the one path every batch takes, in a fixed order, once the
// batch's results are in place in grid order: fresh simulations feed
// the oracle (one result-store commit), everything but estimates is
// journaled (one journal commit), and only then is the batch handed to
// Progress. Batches touch disjoint indices, so concurrent commits need
// no lock; the oracle, the journal and the daemon's Progress hook are
// safe for concurrent use. A failed journal commit is tolerated: its
// points are only recomputed if the sweep is interrupted later.
func (sw *sweepRun) commit(indices []int) {
	if len(indices) == 0 {
		return
	}
	truth := make([]int, 0, len(indices))
	ms := make([]core.Metrics, 0, len(indices))
	var keys []resultstore.Key
	for _, i := range indices {
		res := &sw.results[i]
		if res.Estimate != nil {
			continue // an estimate is never ground truth
		}
		truth = append(truth, i)
		ms = append(ms, res.Metrics)
		if res.Served == "" && sw.opts.oracle.enabled() {
			keys = append(keys, sw.key(i))
		}
	}
	// A batch is an oracle pass (nothing fresh) or simulations (all
	// fresh), so keys, when present, line up with ms.
	if len(keys) > 0 {
		sw.opts.oracle.learn(keys, ms)
	}
	if j := sw.opts.Journal; j != nil && len(truth) > 0 {
		_ = j.AppendBatch(truth, ms)
	}
	if sw.opts.Progress != nil {
		sw.opts.Progress(indices, sw.results)
	}
}

// commitSimulated records freshly simulated metrics (ms[k] for
// indices[k]) and commits them as one batch.
func (sw *sweepRun) commitSimulated(indices []int, ms []core.Metrics) {
	for k, i := range indices {
		sw.results[i] = SweepResult{Point: sw.points[i], Metrics: ms[k]}
	}
	sw.commit(indices)
}

// key is point i's exact result-store identity.
func (sw *sweepRun) key(i int) resultstore.Key {
	return oracleKey(sw.opts.pkey, sw.points[i].Apply(sw.base), sw.r, sw.seed)
}

// serveFromOracle is tier 2. It answers what it can from the result
// store, then (except on fanout) from the gated surrogate, commits the
// pass as one batch in pending order, and returns the indices left for
// the executor.
func (sw *sweepRun) serveFromOracle(ctx context.Context, pending []int) []int {
	o := sw.opts.oracle
	if !o.enabled() || len(pending) == 0 {
		return pending
	}
	_, span := obs.TracerFromContext(ctx).StartSpan(ctx, "oracle.filter")
	var served []int
	storeHits := 0
	remain := pending[:0]
	for _, i := range pending {
		t0 := time.Now()
		key := sw.key(i)
		if m, ok := o.lookup(key); ok {
			sw.results[i] = SweepResult{Point: sw.points[i], Metrics: m, Served: ServedFromStore}
			sw.opts.ledger.record(i, TierStore, "", -1, time.Since(t0).Seconds(), false)
			served = append(served, i)
			storeHits++
			continue
		}
		if !sw.opts.fanout {
			if est, ok := o.predict(key); ok {
				sw.results[i] = SweepResult{Point: sw.points[i], Served: ServedFromSurrogate, Estimate: &est}
				sw.opts.ledger.record(i, TierSurrogate, "", -1, time.Since(t0).Seconds(), true)
				served = append(served, i)
				continue
			}
		}
		remain = append(remain, i)
	}
	sw.commit(served)
	span.Annotate("store_hits", strconv.Itoa(storeHits))
	span.Annotate("surrogate_hits", strconv.Itoa(len(served)-storeHits))
	span.Annotate("simulate", strconv.Itoa(len(remain)))
	span.End()
	return remain
}

// clusterJob hands the pending indices to the cluster executor. Remote
// chunks commit like every other batch, and the coordinator's own share
// runs simulate, so a sweep that degrades to local-only is
// indistinguishable from an unclustered one.
func (sw *sweepRun) clusterJob(ctx context.Context, pending []int) ClusterSweepJob {
	return ClusterSweepJob{
		Profile: sw.opts.spec,
		Config:  sw.opts.cfgSpec,
		Points:  sw.points,
		Pending: pending,
		// Peers re-derive the reduction factor from (graph, target);
		// the graph is bit-identical everywhere, so the derivation is.
		Target:  targetForReduction(sw.g, sw.r),
		SimSeed: sw.seed,
		Report:  sw.commitSimulated,
		ReportCost: func(index int, c PointCost) {
			sw.opts.ledger.record(index, c.Tier, c.Node, c.Cohort, c.WallS, c.Estimated)
		},
		Local: sw.simulate,
		Failover: func(peer string, n int) {
			sw.opts.log.Warn("sweep failover", "trace_id", obs.TraceIDFromContext(ctx),
				"peer", peer, "repartitioned_points", n)
			if ri := requestInfo(ctx); ri != nil {
				ri.failovers.Add(1)
			}
		},
	}
}
