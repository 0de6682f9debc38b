package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/sfg"
	"repro/internal/stats"
)

// metricFn extracts one Table 4 metric from a run.
type metricFn func(core.Metrics) float64

func metricIPC(m core.Metrics) float64    { return m.IPC() }
func metricEPC(m core.Metrics) float64    { return m.EPC() }
func metricRUUOcc(m core.Metrics) float64 { return m.AvgRUUOcc }
func metricLSQOcc(m core.Metrics) float64 { return m.AvgLSQOcc }
func metricIFQOcc(m core.Metrics) float64 { return m.AvgIFQOcc }
func metricExecBW(m core.Metrics) float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Act.Issued) / float64(m.Cycles)
}
func metricUnit(u power.Unit) metricFn {
	return func(m core.Metrics) float64 { return m.Power.Watts[u] }
}

// sweepPoint names one design point of a sweep.
type sweepPoint struct {
	label string
	cfg   cpu.Config
}

// sweepSpec describes one Table 4 sweep.
type sweepSpec struct {
	name    string
	points  []sweepPoint
	metrics []string
	fns     []metricFn
	// reprofile is true when the swept structure is one of the profiled
	// locality structures (caches, predictor): the statistical profile
	// is microarchitecture-dependent there and must be re-measured per
	// point (§4.4 notes this cost).
	reprofile bool
}

// Table4Transition is the relative error of every metric for one move
// between adjacent design points, averaged over benchmarks.
type Table4Transition struct {
	From, To string
	Errors   map[string]float64
}

// Table4Sweep is one of the five sensitivity studies.
type Table4Sweep struct {
	Name        string
	Metrics     []string
	Transitions []Table4Transition
}

// Table4Result is the full table.
type Table4Result struct {
	Scale  Scale
	Sweeps []Table4Sweep
}

func table4Sweeps() []sweepSpec {
	base := baseline()

	window := sweepSpec{
		name:    "window size (RUU; LSQ = RUU/2)",
		metrics: []string{"IPC", "RUU-occ", "LSQ-occ", "EPC", "RUU-power", "LSQ-power"},
		fns: []metricFn{metricIPC, metricRUUOcc, metricLSQOcc, metricEPC,
			metricUnit(power.UnitRUU), metricUnit(power.UnitLSQ)},
	}
	for _, ruu := range []int{8, 16, 32, 48, 64, 96, 128} {
		cfg := base
		cfg.RUUSize = ruu
		cfg.LSQSize = ruu / 2
		if cfg.LSQSize < 4 {
			cfg.LSQSize = 4
		}
		window.points = append(window.points, sweepPoint{fmt.Sprint(ruu), cfg})
	}

	width := sweepSpec{
		name:    "processor width (decode = issue = commit)",
		metrics: []string{"IPC", "exec-bw", "EPC", "fetch-power", "dispatch-power", "issue-power"},
		fns: []metricFn{metricIPC, metricExecBW, metricEPC,
			metricUnit(power.UnitFetch), metricUnit(power.UnitDispatch), metricUnit(power.UnitIssue)},
	}
	for _, w := range []int{2, 4, 6, 8} {
		cfg := base
		cfg.DecodeWidth, cfg.IssueWidth, cfg.CommitWidth = w, w, w
		width.points = append(width.points, sweepPoint{fmt.Sprint(w), cfg})
	}

	ifq := sweepSpec{
		name:    "instruction fetch queue size",
		metrics: []string{"IPC", "EPC", "IFQ-occ"},
		fns:     []metricFn{metricIPC, metricEPC, metricIFQOcc},
	}
	for _, q := range []int{4, 8, 16, 32} {
		cfg := base
		cfg.IFQSize = q
		ifq.points = append(ifq.points, sweepPoint{fmt.Sprint(q), cfg})
	}

	bp := sweepSpec{
		name: "branch predictor size",
		metrics: []string{"IPC", "EPC", "RUU-occ", "RUU-power", "LSQ-occ", "LSQ-power",
			"IFQ-occ", "fetch-power", "bpred-power"},
		fns: []metricFn{metricIPC, metricEPC, metricRUUOcc, metricUnit(power.UnitRUU),
			metricLSQOcc, metricUnit(power.UnitLSQ), metricIFQOcc,
			metricUnit(power.UnitFetch), metricUnit(power.UnitBpred)},
		reprofile: true,
	}
	for _, lg := range []int{-2, -1, 0, 1, 2} {
		cfg := base
		cfg.Bpred = cfg.Bpred.Scale(lg)
		bp.points = append(bp.points, sweepPoint{bpLabel(lg), cfg})
	}

	cachesw := sweepSpec{
		name: "cache configuration size",
		metrics: []string{"IPC", "EPC", "RUU-occ", "RUU-power", "LSQ-occ", "LSQ-power",
			"IFQ-occ", "fetch-power", "icache-power", "dcache-power", "l2-power"},
		fns: []metricFn{metricIPC, metricEPC, metricRUUOcc, metricUnit(power.UnitRUU),
			metricLSQOcc, metricUnit(power.UnitLSQ), metricIFQOcc,
			metricUnit(power.UnitFetch), metricUnit(power.UnitICache),
			metricUnit(power.UnitDCache), metricUnit(power.UnitL2)},
		reprofile: true,
	}
	for _, lg := range []int{-2, -1, 0, 1, 2} {
		cfg := base
		factor := 1.0
		for i := 0; i < lg; i++ {
			factor *= 2
		}
		for i := 0; i > lg; i-- {
			factor /= 2
		}
		cfg.Hier = cfg.Hier.Scale(factor)
		cachesw.points = append(cachesw.points, sweepPoint{bpLabel(lg), cfg})
	}

	return []sweepSpec{window, width, ifq, bp, cachesw}
}

func bpLabel(lg int) string {
	switch {
	case lg < 0:
		return fmt.Sprintf("base/%d", 1<<(-lg))
	case lg > 0:
		return fmt.Sprintf("base*%d", 1<<lg)
	default:
		return "base"
	}
}

// Table4 measures the relative prediction error of every metric across
// every adjacent design-point transition of the five sweeps (§4.5).
// The paper's finding: relative errors are generally below 3%, far
// smaller than the absolute errors, making statistical simulation a
// reliable trend predictor.
func Table4(s Scale) (*Table4Result, error) {
	s = s.withDefaults()
	ws, err := s.workloads()
	if err != nil {
		return nil, err
	}
	res := &Table4Result{Scale: s}
	for _, spec := range table4Sweeps() {
		sweep, err := runSweep(s, ws, spec)
		if err != nil {
			return nil, err
		}
		res.Sweeps = append(res.Sweeps, sweep)
	}
	return res, nil
}

func runSweep(s Scale, ws []core.Workload, spec sweepSpec) (Table4Sweep, error) {
	type perBench struct {
		eds, ss []core.Metrics
	}
	results, err := parallelMap(s, ws, func(w core.Workload) (perBench, error) {
		var pb perBench
		var g *sfg.Graph
		for _, pt := range spec.points {
			pb.eds = append(pb.eds, core.Reference(pt.cfg, w.Stream(s.ExecSeed, 0, s.RefInstructions)))
			if g == nil || spec.reprofile {
				var err error
				g, err = core.Profile(pt.cfg, w.Stream(s.ExecSeed, 0, s.RefInstructions),
					core.ProfileOptions{K: 1})
				if err != nil {
					return pb, err
				}
			}
			m, err := averageStatSim(pt.cfg, g, core.ReductionFor(g, s.SynthTarget), 2)
			if err != nil {
				return pb, err
			}
			pb.ss = append(pb.ss, m)
		}
		return pb, nil
	})
	if err != nil {
		return Table4Sweep{}, err
	}

	sweep := Table4Sweep{Name: spec.name, Metrics: spec.metrics}
	for p := 1; p < len(spec.points); p++ {
		tr := Table4Transition{
			From:   spec.points[p-1].label,
			To:     spec.points[p].label,
			Errors: map[string]float64{},
		}
		for mi, mname := range spec.metrics {
			var sum float64
			for _, pb := range results {
				sum += stats.RelError(
					spec.fns[mi](pb.ss[p-1]), spec.fns[mi](pb.ss[p]),
					spec.fns[mi](pb.eds[p-1]), spec.fns[mi](pb.eds[p]))
			}
			tr.Errors[mname] = sum / float64(len(results))
		}
		sweep.Transitions = append(sweep.Transitions, tr)
	}
	return sweep, nil
}

// Render returns the table as text.
func (r *Table4Result) Render() string {
	out := "Table 4: relative prediction errors (averaged over benchmarks)\n"
	for _, sw := range r.Sweeps {
		t := &table{header: append([]string{"transition"}, sw.Metrics...)}
		for _, tr := range sw.Transitions {
			cols := []string{tr.From + "->" + tr.To}
			for _, m := range sw.Metrics {
				cols = append(cols, pct(tr.Errors[m]))
			}
			t.add(cols...)
		}
		out += "\nSensitivity to " + sw.Name + "\n" + t.String()
	}
	return out
}
