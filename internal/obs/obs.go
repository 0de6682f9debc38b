// Package obs is the observability layer of the statistical
// simulation pipeline: one hierarchical span system (Tracer) that
// records the profile → reduce → generate → simulate stages alongside
// every other span a request or CLI invocation produces, the stage
// timings derived from those spans, and the run manifest that makes a
// measurement reproducible (config fingerprint, seeds, per-stage
// timings, final metrics).
//
// The design constraint is that observability must cost nothing when
// it is off: a nil *Tracer is the disabled state. Starting and ending a
// span on a nil tracer is a single pointer comparison — no allocation,
// no clock read, no lock — so the hot simulate path pays (measurably,
// see the overhead guard test in the repo root) under 5% with tracing
// disabled. The per-cycle pipeline counters (cpu.PipeStats) are
// deliberately NOT part of this package: they are plain deterministic
// counters that belong to the simulation result itself and are always
// on.
package obs

// Stage names shared by every front end, so the CLI manifest, the
// daemon's /metrics stage families and the experiment manifests all
// speak the same vocabulary. A span with one of these names is a stage
// span; stageOrder lists them in pipeline order, the order stage
// timings are reported in.
const (
	StageProfile   = "profile"   // statistical profiling into an SFG
	StageReduce    = "reduce"    // graph reduction by factor R
	StageGenerate  = "generate"  // synthetic trace generation (stochastic walk)
	StageSimulate  = "simulate"  // trace-driven timing simulation
	StageReference = "reference" // execution-driven reference simulation
	StageSweep     = "sweep"     // a whole CLI design-space sweep
	StageFidelity  = "fidelity"  // a whole CLI adaptive-fidelity run
)

var stageOrder = [...]string{StageProfile, StageReduce, StageGenerate,
	StageSimulate, StageReference, StageSweep, StageFidelity}

// stageIndex returns the name's position in stageOrder, or -1 for a
// span that is not a stage.
func stageIndex(name string) int {
	for i, s := range stageOrder {
		if s == name {
			return i
		}
	}
	return -1
}
