package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/service"
)

// DSEBenchResult is the exploration outcome for one benchmark.
type DSEBenchResult struct {
	Name string
	// SSBest is the EDP-optimal point according to statistical
	// simulation; SSBestEDP its statistically estimated EDP.
	SSBest    service.SweepPoint
	SSBestEDP float64
	// Candidates counts points whose statistical EDP lies within 3% of
	// the optimum (the paper's "region of energy-efficient designs").
	Candidates int
	// EDSBest is the best of the candidate set under execution-driven
	// simulation; MissPct is how far (in EDS EDP) the SS choice landed
	// from it (0 = statistical simulation identified the optimum).
	EDSBest service.SweepPoint
	MissPct float64
}

// DSEResult is the full experiment.
type DSEResult struct {
	Scale  Scale
	Points int
	Rows   []DSEBenchResult
}

// DSE explores the design space with statistical simulation only, then
// verifies with execution-driven simulation of the candidate region —
// the paper's §4.6 protocol, where statistical simulation found the
// optimal design for 7 of 10 benchmarks and landed within 1.24% of it
// for the rest. The grid is the service layer's: the CLI sweep, the
// statsimd daemon and this experiment walk the same design space
// through the same sweep engine. An empty grid means service.PaperGrid.
func DSE(s Scale, grid []service.SweepPoint) (*DSEResult, error) {
	s = s.withDefaults()
	if len(grid) == 0 {
		grid = service.PaperGrid()
	}
	ws, err := s.workloads()
	if err != nil {
		return nil, err
	}
	base := baseline()
	// Per-point synthetic traces can be shorter than the headline
	// SynthTarget: EDP ranking needs less precision than absolute error.
	perPoint := s.SynthTarget / 3
	if perPoint < 5_000 {
		perPoint = 5_000
	}

	// One pool serves every benchmark's per-point sweep; the results of
	// service.Sweep come back in grid order, so the parallel exploration
	// is byte-identical to the serial per-point loop it replaced.
	pool := service.NewPool(s.Parallelism)
	defer pool.Drain(context.Background())

	rows, err := parallelMap(s, ws, func(w core.Workload) (DSEBenchResult, error) {
		row := DSEBenchResult{Name: w.Name}
		g, err := core.Profile(base, w.Stream(s.ExecSeed, 0, s.RefInstructions), core.ProfileOptions{K: 1})
		if err != nil {
			return row, err
		}
		r := core.ReductionFor(g, perPoint)

		swept, _, err := service.Sweep(context.Background(), base, g, grid, r, 1, service.SweepOptions{Pool: pool})
		if err != nil {
			return row, err
		}
		edps := make([]float64, len(grid))
		for i := range swept {
			edps[i] = swept[i].Metrics.EDP()
		}
		bestIdx := 0
		for i := range edps {
			if edps[i] < edps[bestIdx] {
				bestIdx = i
			}
		}
		row.SSBest = grid[bestIdx]
		row.SSBestEDP = edps[bestIdx]

		// Candidate region: statistical EDP within 3% of the optimum.
		type cand struct {
			idx int
			edp float64
		}
		var cands []cand
		for i := range edps {
			if edps[i] <= edps[bestIdx]*1.03 {
				cands = append(cands, cand{i, edps[i]})
			}
		}
		row.Candidates = len(cands)
		sort.Slice(cands, func(a, b int) bool { return cands[a].edp < cands[b].edp })
		if len(cands) > 25 {
			cands = cands[:25]
		}

		// Verify the region with execution-driven simulation.
		bestEDS := -1.0
		var ssEDS float64
		for _, c := range cands {
			m := core.Reference(grid[c.idx].Apply(base), w.Stream(s.ExecSeed, 0, s.RefInstructions))
			edp := m.EDP()
			if c.idx == bestIdx {
				ssEDS = edp
			}
			if bestEDS < 0 || edp < bestEDS {
				bestEDS = edp
				row.EDSBest = grid[c.idx]
			}
		}
		if bestEDS > 0 {
			row.MissPct = (ssEDS - bestEDS) / bestEDS
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &DSEResult{Scale: s, Points: len(grid), Rows: rows}, nil
}

// Hits returns how many benchmarks' SS choice was the EDS optimum of
// the candidate region.
func (r *DSEResult) Hits() int {
	n := 0
	for _, row := range r.Rows {
		if row.MissPct <= 1e-12 {
			n++
		}
	}
	return n
}

// Render returns the result as text.
func (r *DSEResult) Render() string {
	t := &table{header: []string{"benchmark", "SS-optimal point", "cands(3%)", "EDS-best point", "miss"}}
	for _, row := range r.Rows {
		t.add(row.Name, row.SSBest.String(), fmt.Sprint(row.Candidates),
			row.EDSBest.String(), pct(row.MissPct))
	}
	return fmt.Sprintf("Section 4.6: design-space exploration over %d points (EDP)\n%s\nSS identified the EDS optimum for %d/%d benchmarks\n",
		r.Points, t.String(), r.Hits(), len(r.Rows))
}
