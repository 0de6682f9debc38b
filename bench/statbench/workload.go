package main

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/service"
)

// scale sizes every workload. paperScale is what the benchmark runs;
// the tests use a toy scale so the whole benchmark finishes in seconds.
type scale struct {
	ProfileN   uint64 // profiled stream length, warm graphs and cold pairs alike
	Grid       string // named design space: swept whole, permuted, and the source of simulate configs
	ColdTarget uint64 // sweep-cold synthetic trace length
	HitTarget  uint64 // sweep-hit synthetic trace length
	SimTarget  uint64 // simulate-mix, pipeline-cold and accuracy-set trace length
	SetupReps  int    // set-ups per run; setup_s is their median
	// SetupSeconds keeps a cheap set-up repeating (up to maxSetups) until
	// this much time is spent.
	SetupSeconds float64
	Samples      int    // answered points recomputed in process after timing
	ValidateN    uint64 // stream length of the EDS accuracy set
	CalibReps    int    // tries per half of each host calibration; the median counts
}

// paperScale follows the repo's paper scale (EXPERIMENTS.md): 1M-
// instruction profiles and ~100k-instruction synthetic traces, over the
// §4.6 1,792-point design space. sweep-cold's 10k target fits two rounds
// of whole-grid sweeps in a 15 s run, so its median latency is taken
// over six sweeps. sweep-hit fills its result store at a short target in
// set-up: serving a stored point costs the same for any trace length,
// and set-up runs three times per run.
func paperScale() scale {
	return scale{
		ProfileN:     1_000_000,
		Grid:         "paper",
		ColdTarget:   10_000,
		HitTarget:    2_000,
		SimTarget:    100_000,
		SetupReps:    3,
		SetupSeconds: 1,
		Samples:      32,
		ValidateN:    1_000_000,
		CalibReps:    5,
	}
}

// workload is one closed-loop traffic mix: statsimd's callers are
// scripts and DSE drivers that wait for each reply. clients is the
// number of concurrent callers. Why each mix was chosen is recorded in
// BENCHMARK.json and bench/README.md.
type workload struct {
	name    string
	clients int
	// round is the length of the sequence's cycle of programs (and of
	// sweep-hit's fresh/fresh/fresh/repeat pattern). A run always sends
	// whole rounds, so its mix of programs does not depend on where the
	// deadline fell.
	round int
	// digestOps is how many leading answers result_digest covers and the
	// correctness sample is drawn from, so both depend on the seed only.
	// Every paper-scale run answers at least that many.
	digestOps int
	// cacheSize is the server's graph cache: the warm graphs, or for
	// pipeline-cold room for both clients' fresh profiles. A 1M-
	// instruction gcc graph alone holds ~200 MiB, so the default
	// 16-graph cache lets pipeline-cold's peak RSS pass 1.5 GiB.
	cacheSize int
}

var workloads = []workload{
	{name: "sweep-cold", clients: 1, round: 3, digestOps: 3, cacheSize: 3},
	{name: "sweep-hit", clients: 1, round: 4, digestOps: 12, cacheSize: 1},
	{name: "simulate-mix", clients: 2, round: 10, digestOps: 64, cacheSize: 10},
	{name: "pipeline-cold", clients: 2, round: 10, digestOps: 32, cacheSize: 4},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want sweep-cold, sweep-hit, simulate-mix or pipeline-cold)", name)
}

// sweepColdWorkloads are the three programs sweep-cold rotates through,
// the §4.6 DSE study's gzip, gcc and twolf.
var sweepColdWorkloads = []string{"gzip", "gcc", "twolf"}

// allPrograms lists the ten SPECint stand-ins by name.
func allPrograms() []string {
	ps := program.Benchmarks()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// op is one closed-loop step a client takes: a sweep, a simulate, or a
// profile followed by a simulate of the fresh profile (a cold pair).
// Its latency is the time to the last reply.
type op struct {
	Profile  *service.ProfileRequest  `json:"profile,omitempty"`
	Simulate *service.SimulateRequest `json:"simulate,omitempty"`
	Sweep    *service.SweepRequest    `json:"sweep,omitempty"`
	// grid is a sweep's points as the server resolves them: the named
	// grid the request asks for, or its explicit points.
	grid []service.SweepPoint
}

// points is the number of IPC answers op yields.
func (o op) points() int {
	if o.Sweep != nil {
		return len(o.grid)
	}
	return 1
}

// simPoint is one simulation an op asks for, with statsimd's request
// defaults applied.
type simPoint struct {
	spec    service.ProfileSpec
	cfg     cpu.Config
	target  uint64
	simSeed uint64
}

// pointOf resolves answer k of o the way the server's handlers do.
func pointOf(o op, k int) simPoint {
	var p simPoint
	if o.Sweep != nil {
		p = simPoint{spec: o.Sweep.Profile, cfg: o.grid[k].Apply(cpu.DefaultConfig()),
			target: o.Sweep.Target, simSeed: o.Sweep.SimSeed}
	} else {
		c, cfg := o.Simulate.Config, cpu.DefaultConfig()
		for _, f := range []struct {
			v   int
			dst *int
		}{{c.RUU, &cfg.RUUSize}, {c.LSQ, &cfg.LSQSize}, {c.Decode, &cfg.DecodeWidth}, {c.Issue, &cfg.IssueWidth}, {c.Commit, &cfg.CommitWidth}} {
			if f.v > 0 {
				*f.dst = f.v
			}
		}
		p = simPoint{spec: o.Simulate.Profile, cfg: cfg, target: o.Simulate.Target, simSeed: o.Simulate.SimSeed}
	}
	if p.target == 0 {
		p.target = 100_000
	}
	if p.simSeed == 0 {
		p.simSeed = 1
	}
	return p
}

// sequence is a workload's request stream: op(i) is a pure function of
// (workload, seed, scale, i), so the stream is unbounded yet every
// prefix is reproducible, and the server only sees what it generates.
type sequence struct {
	wl       workload
	seed     uint64
	sc       scale
	programs []string
	grid     []service.SweepPoint
	order    []int  // simulate-mix: seeded permutation of the grid points
	base     uint64 // seed-derived offset for generated sim/profile seeds
}

func newSequence(wl workload, seed uint64, sc scale) (*sequence, error) {
	grid, err := service.GridByName(sc.Grid)
	if err != nil {
		return nil, err
	}
	s := &sequence{wl: wl, seed: seed, sc: sc, programs: allPrograms(), grid: grid, base: splitmix64(seed) >> 44}
	if wl.name == "simulate-mix" {
		s.order = perm(len(grid), seed)
	}
	return s, nil
}

// warmSpec is the profile every warm graph is built from in set-up.
func (s *sequence) warmSpec(program string) service.ProfileSpec {
	return service.ProfileSpec{Workload: program, K: 1, N: s.sc.ProfileN, Seed: 1}
}

// setupSweep is the sweep sweep-hit's set-up runs to fill the result
// store: gzip's grid in grid order, sim_seed 1.
func (s *sequence) setupSweep() *service.SweepRequest {
	return &service.SweepRequest{Profile: s.warmSpec("gzip"), Grid: s.sc.Grid, Target: s.sc.HitTarget, SimSeed: 1}
}

func configOf(p service.SweepPoint) service.ConfigSpec {
	return service.ConfigSpec{RUU: p.RUU, LSQ: p.LSQ, Decode: p.Decode, Issue: p.Issue, Commit: p.Commit}
}

func (s *sequence) op(i int) op {
	switch s.wl.name {
	case "sweep-cold":
		// Request i sweeps the whole grid of one of three programs with a
		// sim_seed no earlier request used, so journal and store miss.
		return op{Sweep: &service.SweepRequest{
			Profile: s.warmSpec(sweepColdWorkloads[i%len(sweepColdWorkloads)]),
			Grid:    s.sc.Grid,
			Target:  s.sc.ColdTarget,
			SimSeed: s.base<<20 + uint64(i) + 2,
		}, grid: s.grid}
	case "sweep-hit":
		// Three of every four sweeps are a fresh permutation of the set-up
		// grid (a new fingerprint: every point is a store hit that gets
		// journaled); the fourth repeats the third and resumes from its
		// journal.
		r := i
		if i%4 == 3 {
			r = i - 1
		}
		order := perm(len(s.grid), splitmix64(s.seed^uint64(r)<<32))
		pts := make([]service.SweepPoint, len(order))
		for k, j := range order {
			pts[k] = s.grid[j]
		}
		req := s.setupSweep()
		req.Grid, req.Points = "", pts
		return op{Sweep: req, grid: pts}
	case "simulate-mix":
		// Programs rotate; configs walk a seeded permutation of the grid
		// and sim_seed cycles 1..1000, so no two requests of a run share a
		// result-store key.
		return op{Simulate: &service.SimulateRequest{
			Profile: s.warmSpec(s.programs[i%len(s.programs)]),
			Config:  configOf(s.grid[s.order[i%len(s.order)]]),
			Target:  s.sc.SimTarget,
			SimSeed: 1 + (s.base+uint64(i))%1000,
		}}
	default: // pipeline-cold
		spec := service.ProfileSpec{Workload: s.programs[i%len(s.programs)], K: 1, N: s.sc.ProfileN,
			Seed: s.base<<20 + uint64(i) + 2}
		return op{
			Profile:  &service.ProfileRequest{ProfileSpec: spec},
			Simulate: &service.SimulateRequest{Profile: spec, Target: s.sc.SimTarget},
		}
	}
}
