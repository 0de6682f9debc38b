// Package core orchestrates the paper's three-step statistical
// simulation methodology (Figure 1) end to end:
//
//  1. statistical profiling of a workload into a statistical flow graph
//     (internal/sfg),
//  2. synthetic trace generation from the reduced graph
//     (internal/synth),
//  3. synthetic trace simulation on the shared superscalar timing core
//     (internal/cpu), plus Wattch-style power estimation
//     (internal/power).
//
// It also wraps the execution-driven reference simulation and the ten
// benchmark workloads, keeping the microarchitecture configuration
// consistent between profiling and simulation (the locality structures
// profiled must match the ones the timing model charges for, §2.1.2).
package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/program"
	"repro/internal/sfg"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Metrics bundles the outputs the evaluation cares about: timing,
// branch/cache behaviour, and power.
type Metrics struct {
	cpu.Result
	Power power.Breakdown
}

// IPC returns instructions per cycle.
func (m Metrics) IPC() float64 { return m.Result.IPC() }

// EPC returns energy per cycle (average power) in Watts.
func (m Metrics) EPC() float64 { return m.Power.EPC() }

// CPI returns cycles per instruction (0 when nothing committed). CPI is
// the additive form of the timing result: equal-length samples combine
// by plain averaging, which is what stratified estimators (the adaptive
// fidelity engine, the Fig. 8 SimPoint scenario) need — IPC does not
// average linearly.
func (m Metrics) CPI() float64 {
	if m.Instructions == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Instructions)
}

// EPI returns energy per instruction (EPC x CPI) in Watt-cycles per
// instruction — like CPI, additive across equal-length samples.
func (m Metrics) EPI() float64 { return m.EPC() * m.CPI() }

// EDP returns the energy-delay product EPC/IPC² (§4.2.3).
func (m Metrics) EDP() float64 { return power.EDP(m.EPC(), m.IPC()) }

// Reference runs execution-driven simulation (the paper's EDS
// baseline) of src on cfg and estimates power from the activity.
func Reference(cfg cpu.Config, src trace.Source) Metrics {
	res := cpu.NewExecutionDriven(cfg, src).Run()
	return Metrics{Result: res, Power: power.Estimate(cfg, res)}
}

// ReferenceWarmed runs execution-driven simulation starting from
// functionally pre-warmed locality state (cpu.WarmState) — the sampled-
// simulation path, where caches and predictors carry the whole stream's
// history but only the sample window pays detailed-simulation cost. ws
// is consumed: the pipeline mutates it.
func ReferenceWarmed(cfg cpu.Config, ws *cpu.WarmState, src trace.Source) Metrics {
	res := cpu.NewExecutionDrivenWarmed(cfg, src, ws).Run()
	return Metrics{Result: res, Power: power.Estimate(cfg, res)}
}

// SimulateTrace runs the trace-driven simulator on an already-generated
// synthetic trace.
func SimulateTrace(cfg cpu.Config, src trace.Source) Metrics {
	res := cpu.NewTraceDriven(cfg, src).Run()
	return Metrics{Result: res, Power: power.Estimate(cfg, res)}
}

// ProfileOptions configures statistical profiling. K is the SFG order
// as given (0 is the zero-order SFG). The zero value of the rest follows
// the paper: delayed update, sequential profiling, no warm-up. The
// locality structures come from the CPU config, and the delayed-update
// FIFO is as deep as its IFQ (§2.1.3).
type ProfileOptions struct {
	K               int
	ImmediateUpdate bool
	Warmup          uint64 // leading instructions that only warm locality state

	// Shards > 1 enables parallel sharded profiling (sfg.ProfileSharded):
	// the stream is chopped into ShardInterval-length slabs profiled
	// concurrently and merged deterministically. Sequential profiling
	// (Shards <= 1) remains the default and the golden reference.
	Shards        int
	ShardInterval uint64 // slab length; 0 = sfg.DefaultShardInterval
	ShardWarmup   uint64 // per-shard warm window; 0 = ShardInterval
}

// Profile measures the statistical profile of src under the locality
// structures of cfg.
func Profile(cfg cpu.Config, src trace.Source, opts ProfileOptions) (*sfg.Graph, error) {
	sopts := sfg.Options{
		K:               opts.K,
		Hier:            cfg.Hier,
		Bpred:           cfg.Bpred,
		ImmediateUpdate: opts.ImmediateUpdate,
		FIFOSize:        cfg.IFQSize,
		Warmup:          opts.Warmup,
	}
	if opts.Shards > 1 {
		return sfg.ProfileSharded(src, sopts, sfg.ShardOptions{
			Shards:   opts.Shards,
			Interval: opts.ShardInterval,
			Warmup:   opts.ShardWarmup,
		})
	}
	return sfg.Profile(src, sopts)
}

// StatSim runs the full statistical simulation pipeline: reduce the
// profile by factor R, generate a synthetic trace with the given seed,
// and simulate it on cfg. The same profile can be reused across many
// (cfg, R, seed) combinations — that reuse is what makes design-space
// exploration cheap (§4.6), as long as cache/predictor structures stay
// the ones that were profiled.
func StatSim(cfg cpu.Config, g *sfg.Graph, r uint64, seed uint64) (Metrics, error) {
	red, err := synth.Reduce(g, synth.Options{R: r, Seed: seed})
	if err != nil {
		return Metrics{}, err
	}
	return SimulateTrace(cfg, red.NewTrace(seed)), nil
}

// ReductionFor picks a trace reduction factor R that yields a synthetic
// trace of about target instructions from the given profile, clamped to
// at least 1.
func ReductionFor(g *sfg.Graph, target uint64) uint64 {
	if target == 0 || g.TotalInstructions == 0 {
		return 1
	}
	r := g.TotalInstructions / target
	if r < 1 {
		r = 1
	}
	return r
}

// Workload is a loaded benchmark: a generated program plus its
// personality.
type Workload struct {
	Name string
	Pers program.Personality
	Prog *program.Program
}

// Workloads generates all ten SPECint stand-in benchmarks (Table 1).
func Workloads() []Workload {
	ps := program.Benchmarks()
	ws := make([]Workload, len(ps))
	for i, p := range ps {
		ws[i] = Workload{Name: p.Name, Pers: p, Prog: program.MustGenerate(p)}
	}
	return ws
}

// LoadWorkload generates one benchmark by name.
func LoadWorkload(name string) (Workload, error) {
	p, err := program.ByName(name)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: p.Name, Pers: p, Prog: program.MustGenerate(p)}, nil
}

// WorkloadFromPersonality generates a workload from a custom
// personality (e.g. one loaded from JSON via the statsim CLI).
func WorkloadFromPersonality(p program.Personality) (Workload, error) {
	prog, err := program.Generate(p)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: p.Name, Pers: p, Prog: prog}, nil
}

// Stream returns the committed dynamic instruction stream of the
// workload: skip instructions are fast-forwarded (for phase windows),
// then n instructions are delivered.
func (w Workload) Stream(seed, skip, n uint64) trace.Source {
	ex := program.NewExecutor(w.Prog, seed)
	if skip > 0 {
		ex.Skip(skip)
	}
	return &trace.LimitSource{Src: ex, N: n}
}

// Validate sanity-checks a workload.
func (w Workload) Validate() error {
	if w.Prog == nil {
		return fmt.Errorf("core: workload %q has no program", w.Name)
	}
	return w.Prog.Validate()
}
