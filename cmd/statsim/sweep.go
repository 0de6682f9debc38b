package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sfg"
)

// cmdSweep runs a parallel design-space sweep from one statistical
// profile through the one sweep engine, service.Sweep, which statsimd's
// POST /v1/sweep, the statsim.Sweep facade and the §4.6 DSE experiment
// also run. Here it runs with a journal at most: the daemon's result
// store, surrogate and cluster tiers are not attached.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	load := workloadFlags(fs)
	prof := fs.String("profile", "", "saved profile from `statsim profile` (skips profiling)")
	n := fs.Uint64("n", 1_000_000, "instructions to profile (ignored with -profile)")
	seed := fs.Uint64("seed", 1, "execution seed (ignored with -profile)")
	k := fs.Int("k", 1, "SFG order (ignored with -profile)")
	shards := fs.Int("profile-shards", 1, "parallel profiling shards (>1 enables interval-sharded profiling)")
	grid := fs.String("grid", "quick", "design space: quick (9 points) or paper (1792 points)")
	target := fs.Uint64("target", 100_000, "synthetic trace length target per point")
	simSeed := fs.Uint64("sim-seed", 1, "synthetic trace generation seed")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	top := fs.Int("top", 0, "print only the N lowest-EDP points (0 = all, in grid order)")
	journal := fs.String("journal", "", "checkpoint file: completed points are appended as they finish")
	resume := fs.Bool("resume", false, "reuse an existing -journal file, recomputing only missing points")
	showProgress := fs.Bool("progress", false, "print live completion progress to stderr")
	mkCfg := configFlags(fs)
	ob := obsFlags(fs, "statsim sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *journal == "" {
		return fmt.Errorf("sweep: -resume requires -journal")
	}
	points, err := service.GridByName(*grid)
	if err != nil {
		return err
	}

	var g *sfg.Graph
	if *prof != "" {
		if g, err = loadProfile(*prof); err != nil {
			return err
		}
	} else {
		w, err := load()
		if err != nil {
			return err
		}
		_, sp := ob.stage(obs.StageProfile)
		if g, err = core.Profile(mkCfg(), w.Stream(*seed, 0, *n), core.ProfileOptions{K: *k, Shards: *shards}); err != nil {
			return err
		}
		sp.EndInstructions(g.TotalInstructions)
	}

	red := core.ReductionFor(g, *target)
	var j *service.SweepJournal
	if *journal != "" {
		if !*resume {
			if _, err := os.Stat(*journal); err == nil {
				return fmt.Errorf("sweep: %s exists; pass -resume to continue it or remove it first", *journal)
			}
		}
		id := service.SweepFingerprint(g, mkCfg(), points, red, *simSeed)
		if j, err = service.OpenSweepJournal(*journal, id, len(points), nil); err != nil {
			return err
		}
		defer j.Close()
	}

	var progressFn func([]int, []service.SweepResult)
	if *showProgress {
		var completed atomic.Int64
		if j != nil {
			completed.Store(int64(j.Resumed()))
		}
		total := int64(len(points))
		step := max(total/20, 1)
		progressFn = func(indices []int, _ []service.SweepResult) {
			added := int64(len(indices))
			if n := completed.Add(added); n/step != (n-added)/step || n == total {
				fmt.Fprintf(os.Stderr, "sweep: %d/%d points\n", n, total)
			}
		}
	}

	pool := service.NewPool(*workers)
	defer pool.Drain(context.Background())
	// The sweep interleaves reduce/generate/simulate per point across
	// workers; one aggregate stage is the honest attribution. The
	// engine's own spans (oracle passes, cohorts) nest below it.
	ctx, sp := ob.stage(obs.StageSweep)
	results, resumed, err := service.Sweep(ctx, mkCfg(), g, points, red, *simSeed,
		service.SweepOptions{Pool: pool, Journal: j, Progress: progressFn})
	sp.End()
	if err != nil {
		return err
	}
	if resumed > 0 {
		fmt.Printf("resumed %d of %d points from %s\n", resumed, len(points), *journal)
	}

	best := 0
	for i, res := range results {
		if res.Metrics.EDP() < results[best].Metrics.EDP() {
			best = i
		}
	}
	rows := results
	if *top > 0 && *top < len(results) {
		rows = append([]service.SweepResult(nil), results...)
		sort.SliceStable(rows, func(a, b int) bool { return rows[a].Metrics.EDP() < rows[b].Metrics.EDP() })
		rows = rows[:*top]
	}
	fmt.Printf("%-28s %8s %8s %8s\n", "point", "IPC", "EPC(W)", "EDP")
	for _, res := range rows {
		fmt.Printf("%-28s %8.4f %8.2f %8.3f\n",
			res.Point.String(), res.Metrics.IPC(), res.Metrics.EPC(), res.Metrics.EDP())
	}
	fmt.Printf("best: %s  EDP=%.3f  (%d points)\n",
		results[best].Point, results[best].Metrics.EDP(), len(results))
	return ob.finish(func(man *obs.Manifest) {
		man.ConfigFingerprint = obs.Fingerprint(mkCfg())
		if *prof == "" {
			man.Seed = *seed // a saved profile does not record its seed
		}
		man.K = g.K
		man.SimSeed = *simSeed
		man.Reduction = red
		man.StreamLength = g.TotalInstructions
		man.NumWorkers = *workers
	})
}
