package core

import (
	"context"
	"time"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sfg"
	"repro/internal/synth"
)

// StatSimTraced is StatSim with stage spans on the context's tracer:
// StageReduce around graph reduction and StageSimulate around the
// simulation. The synthetic trace is generated lazily, inside the
// simulation loop, so an obs.TimedSource times the generator and its
// time is recorded as a StageGenerate child of the simulate span. Only
// core can split generation out of simulation, so this is the one
// stage-aware entry point; callers time the other stages with ordinary
// spans. With no tracer it is plain StatSim on an unwrapped source.
func StatSimTraced(ctx context.Context, cfg cpu.Config, g *sfg.Graph, r uint64, seed uint64) (Metrics, error) {
	tr := obs.TracerFromContext(ctx)
	if tr == nil {
		return StatSim(cfg, g, r, seed)
	}
	_, reduce := tr.StartSpan(ctx, obs.StageReduce)
	red, err := synth.Reduce(g, synth.Options{R: r, Seed: seed})
	reduce.End()
	if err != nil {
		return Metrics{}, err
	}

	timed := obs.NewTimedSource(red.NewTrace(seed))
	simCtx, sim := tr.StartSpan(ctx, obs.StageSimulate)
	start := time.Now()
	m := SimulateTrace(cfg, timed)
	tr.Record(simCtx, obs.StageGenerate, start, timed.Duration(), timed.Instructions())
	sim.EndInstructions(m.Instructions)
	return m, nil
}

// ManifestMetrics converts final metrics into the manifest wire form.
func ManifestMetrics(m Metrics) *obs.ManifestMetrics {
	return &obs.ManifestMetrics{
		IPC:              m.IPC(),
		EPC:              m.EPC(),
		EDP:              m.EDP(),
		Instructions:     m.Instructions,
		Cycles:           m.Cycles,
		MispredictsPerKI: m.Branch.MispredictsPerKI(m.Instructions),
		L1DMissRate:      m.Cache.L1DMissRate(),
		L2DMissRate:      m.Cache.L2DMissRate(),
		L1IMissRate:      m.Cache.L1IMissRate(),
		L2IMissRate:      m.Cache.L2IMissRate(),
	}
}
