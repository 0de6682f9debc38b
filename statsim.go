// Package statsim is the public API of the statistical simulation
// framework reproducing Eeckhout, Bell, Stougie, De Bosschere and John,
// "Control Flow Modeling in Statistical Simulation for Accurate and
// Efficient Processor Design Studies" (ISCA 2004).
//
// The methodology has three steps (Figure 1 of the paper):
//
//  1. Profile a program execution into a statistical flow graph (SFG):
//     per-context basic-block statistics, dependency-distance
//     distributions, branch behaviour under delayed predictor update,
//     and cache/TLB miss statistics.
//  2. Generate a synthetic trace a factor R shorter than the original
//     execution by a stochastic walk over the reduced SFG.
//  3. Simulate the synthetic trace on a trace-driven superscalar timing
//     model, obtaining IPC/EPC predictions orders of magnitude faster
//     than execution-driven simulation.
//
// Quickstart:
//
//	w, _ := statsim.LoadWorkload("gzip")
//	cfg := statsim.DefaultConfig()
//	eds := statsim.Reference(cfg, w.Stream(1, 0, 1_000_000)) // slow, exact
//	g, _ := statsim.Profile(cfg, w.Stream(1, 0, 1_000_000), statsim.ProfileOptions{K: 1})
//	ss, _ := statsim.StatSim(cfg, g, statsim.ReductionFor(g, 100_000), 1) // fast
//	fmt.Printf("EDS %.3f vs statistical %.3f IPC\n", eds.IPC(), ss.IPC())
//
// The workloads are deterministic synthetic SPECint2000 stand-ins (the
// original Alpha binaries are not reproducible here; see DESIGN.md for
// the substitution argument). Everything in the framework is
// deterministic given explicit seeds.
package statsim

import (
	"context"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/service"
	"repro/internal/sfg"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Config is the microarchitecture configuration (Table 2 of the paper
// via DefaultConfig).
type Config = cpu.Config

// Metrics bundles timing, locality and power results of one simulation.
type Metrics = core.Metrics

// Workload is a loaded benchmark program.
type Workload = core.Workload

// Graph is a statistical flow graph — one statistical profile.
type Graph = sfg.Graph

// ProfileOptions configures statistical profiling (SFG order k,
// update discipline, warmup).
type ProfileOptions = core.ProfileOptions

// Source is a dynamic instruction stream, read in chunks: NextBatch
// fills a prefix of dst with fully initialised records and returns its
// length, returning 0 only at end of stream (and from then on). Every
// stream this package returns implements it; the record type is
// internal, so callers pass streams along rather than implement them.
type Source = trace.Source

// DefaultConfig returns the paper's Table 2 baseline configuration: an
// 8-wide out-of-order processor with a 128-entry RUU, 32-entry LSQ and
// IFQ, hybrid 8K branch predictor with speculative update at dispatch,
// and an 8KB-I/16KB-D/1MB-L2 hierarchy.
func DefaultConfig() Config { return cpu.DefaultConfig() }

// Workloads loads all ten SPECint stand-in benchmarks (Table 1).
func Workloads() []Workload { return core.Workloads() }

// LoadWorkload loads one benchmark by name (bzip2, crafty, eon, gcc,
// gzip, parser, perlbmk, twolf, vortex, vpr).
func LoadWorkload(name string) (Workload, error) { return core.LoadWorkload(name) }

// Reference runs execution-driven simulation — the slow, accurate
// baseline the statistical results are compared against.
func Reference(cfg Config, src Source) Metrics { return core.Reference(cfg, src) }

// Profile measures a statistical flow graph from a committed
// instruction stream under cfg's cache and predictor structures.
func Profile(cfg Config, src Source, opts ProfileOptions) (*Graph, error) {
	return core.Profile(cfg, src, opts)
}

// StatSim runs statistical simulation: reduce the profile by R,
// generate a synthetic trace with the seed, and simulate it on cfg.
func StatSim(cfg Config, g *Graph, r, seed uint64) (Metrics, error) {
	return core.StatSim(cfg, g, r, seed)
}

// SimulateTrace runs the trace-driven simulator on any instruction
// source (e.g. a synthetic trace from NewSyntheticTrace).
func SimulateTrace(cfg Config, src Source) Metrics { return core.SimulateTrace(cfg, src) }

// ReductionFor picks the trace reduction factor R that yields a
// synthetic trace of about target instructions.
func ReductionFor(g *Graph, target uint64) uint64 { return core.ReductionFor(g, target) }

// NewSyntheticTrace reduces g by R and returns a lazily generated
// synthetic trace stream for the given seed. Most callers can use
// StatSim directly; this form allows custom consumers.
func NewSyntheticTrace(g *Graph, r, seed uint64) (Source, error) {
	red, err := synth.Reduce(g, synth.Options{R: r, Seed: seed})
	if err != nil {
		return nil, err
	}
	return red.NewTrace(seed), nil
}

// SweepPoint is one design point of a microarchitecture sweep (window
// sizes and pipeline widths overlaid on a base configuration).
type SweepPoint = service.SweepPoint

// SweepResult pairs a design point with its statistical simulation
// metrics.
type SweepResult = service.SweepResult

// Sweep statistically simulates every design point from one profile,
// running up to workers simulations concurrently (0 = GOMAXPROCS).
// Results come back in point order regardless of completion order, and
// each point's metrics are byte-identical to a serial StatSim loop:
// the fan-out that makes design-space exploration cheap (§4.6). It runs
// the one sweep engine, service.Sweep, which the statsim CLI's sweep
// command, the statsimd daemon's /v1/sweep endpoint and the DSE
// experiment also run.
func Sweep(ctx context.Context, cfg Config, g *Graph, points []SweepPoint, r, seed uint64, workers int) ([]SweepResult, error) {
	pool := service.NewPool(workers)
	defer pool.Drain(context.Background())
	results, _, err := service.Sweep(ctx, cfg, g, points, r, seed, service.SweepOptions{Pool: pool})
	return results, err
}

// NewSyntheticAddressTrace is NewSyntheticTrace with synthetic
// effective addresses drawn from the profiled per-slot stride and
// footprint statistics. Simulate such traces with Config.SimulateDCache
// set to explore data-cache configurations other than the profiled one
// without re-profiling — an extension beyond the paper. Best used for
// directional screening or at low reduction factors: a trace 1/R the
// original length visits only a fraction of each slot's footprint, so
// large-R traces underestimate capacity pressure (see DESIGN.md and the
// addrsweep experiment).
func NewSyntheticAddressTrace(g *Graph, r, seed uint64) (Source, error) {
	red, err := synth.Reduce(g, synth.Options{R: r, Seed: seed, SyntheticAddresses: true})
	if err != nil {
		return nil, err
	}
	return red.NewTrace(seed), nil
}
