package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"

	"repro/internal/fidelity"
	"repro/internal/obs"
	"repro/internal/service"
)

// cmdFidelity runs the adaptive fidelity engine locally: stratified
// phase sampling with cheap statistical estimates, escalating the most
// uncertain strata to execution-driven simulation until the requested
// confidence interval is met or the detailed budget runs out — the same
// engine the statsimd daemon's "fidelity" knob drives.
func cmdFidelity(args []string) error {
	fs := flag.NewFlagSet("fidelity", flag.ExitOnError)
	load := workloadFlags(fs)
	n := fs.Uint64("n", 1_000_000, "committed-stream instructions to cover")
	seed := fs.Uint64("seed", 1, "execution seed")
	simSeed := fs.Uint64("sim-seed", 1, "base synthetic trace seed")
	k := fs.Int("k", 1, "SFG order for the cheap per-interval profiles")
	interval := fs.Uint64("interval", 0, "stratification interval length (0 = n/20)")
	targetCI := fs.Float64("target-ci", 0.02, "relative CI half-width to converge to")
	confidence := fs.Float64("confidence", 0.95, "confidence level (0.90, 0.95 or 0.99)")
	maxDetailed := fs.Float64("max-detailed-frac", 0.25,
		"detailed-instruction budget as a fraction of the stream (negative disables escalation)")
	maxK := fs.Int("max-strata", 10, "maximum phase strata to cluster into")
	workers := fs.Int("workers", 0, "concurrent interval evaluations (0 = GOMAXPROCS)")
	asJSON := fs.Bool("json", false, "print the full result as JSON instead of the report")
	ob := obsFlags(fs, "statsim fidelity")
	mkCfg := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := load()
	if err != nil {
		return err
	}
	cfg := mkCfg()

	pool := service.NewPool(*workers)
	defer pool.Drain(context.Background())
	ctx, sp := ob.stage(obs.StageFidelity)
	eng, err := fidelity.New(ctx, pool, cfg, w, fidelity.Options{
		N:               *n,
		Interval:        *interval,
		K:               *k,
		Seed:            *seed,
		SimSeed:         *simSeed,
		MaxK:            *maxK,
		Confidence:      *confidence,
		TargetCI:        *targetCI,
		MaxDetailedFrac: *maxDetailed,
	})
	if err != nil {
		return err
	}
	res, err := eng.Run(ctx, pool, cfg)
	sp.End()
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		res.Print(os.Stdout)
	}
	return ob.finish(func(man *obs.Manifest) {
		man.ConfigFingerprint = obs.Fingerprint(cfg)
		man.Workload = w.Name
		man.K = *k
		man.Seed = *seed
		man.SimSeed = *simSeed
		man.StreamLength = *n
		man.NumWorkers = *workers
		man.Fidelity = res.Manifest()
	})
}
