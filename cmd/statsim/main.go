// Command statsim is the command-line front end of the statistical
// simulation framework: it profiles benchmark executions into
// statistical flow graphs, generates and simulates synthetic traces,
// runs the execution-driven reference, and compares the two.
//
// Usage:
//
//	statsim list
//	statsim eds      -benchmark gzip -n 1000000 [config flags]
//	statsim profile  -benchmark gzip -n 1000000 -k 1 -o gzip.sfg
//	statsim simulate -profile gzip.sfg -target 100000 [config flags]
//	statsim compare  -benchmark gzip -n 1000000 -target 100000 [config flags]
//	statsim sweep    -benchmark gzip -n 1000000 -grid quick -target 100000
//	statsim fidelity -benchmark gzip -n 1000000 -target-ci 0.02 [config flags]
//	statsim phases   -benchmark gzip -n 1000000 -interval 50000
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sfg"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "eds":
		err = cmdEDS(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "fidelity":
		err = cmdFidelity(os.Args[2:])
	case "phases":
		err = cmdPhases(os.Args[2:])
	case "personality":
		err = cmdPersonality(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "oracle":
		err = cmdOracle(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "statsim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "statsim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `statsim - statistical simulation for processor design studies

commands:
  list         list the available benchmark workloads
  eds          run execution-driven simulation (the slow reference)
  profile      measure a statistical flow graph and save it
  generate     generate a synthetic trace file from a saved profile
  simulate     run statistical simulation from a saved profile or trace file
  compare      run both and report prediction errors
  sweep        parallel design-space sweep from one profile
  fidelity     adaptive-fidelity estimate with a confidence interval
  phases       print a workload's phase clustering (simulation points)
  inspect      summarise a saved statistical profile
  oracle       inspect a daemon's result store; train and evaluate the surrogate
  trace        fetch and render a daemon's assembled span tree for a trace ID
  personality  dump a benchmark's workload definition as editable JSON

Workload selection: every command taking -benchmark also accepts
-workload-file pointing at a JSON personality (see 'personality').

Observability: eds, profile, simulate, compare, sweep and fidelity
accept -stats FILE (JSON run manifest: config fingerprint, per-stage
timings, final metrics) and -trace FILE (the run's trace spans:
pipeline stages under one root span); '-' writes to stdout. Tracing
is off — and costs nothing — unless one of the two is requested.
`)
}

// configFlags registers microarchitecture knobs on fs and returns a
// builder for the resulting configuration.
func configFlags(fs *flag.FlagSet) func() cpu.Config {
	ruu := fs.Int("ruu", 128, "RUU (window) entries")
	lsq := fs.Int("lsq", 32, "LSQ entries")
	width := fs.Int("width", 8, "decode/issue/commit width")
	ifq := fs.Int("ifq", 32, "instruction fetch queue entries")
	perfectCache := fs.Bool("perfect-caches", false, "every access hits in L1")
	perfectBpred := fs.Bool("perfect-bpred", false, "every branch predicted perfectly")
	return func() cpu.Config {
		cfg := cpu.DefaultConfig()
		cfg.RUUSize = *ruu
		cfg.LSQSize = *lsq
		cfg.DecodeWidth, cfg.IssueWidth, cfg.CommitWidth = *width, *width, *width
		cfg.IFQSize = *ifq
		cfg.PerfectCaches = *perfectCache
		cfg.PerfectBpred = *perfectBpred
		return cfg
	}
}

// workloadFlags registers workload-selection flags and returns a loader
// honouring either -benchmark or -workload-file.
func workloadFlags(fs *flag.FlagSet) func() (core.Workload, error) {
	bench := fs.String("benchmark", "gzip", "built-in workload name")
	file := fs.String("workload-file", "", "JSON personality file (overrides -benchmark)")
	return func() (core.Workload, error) {
		if *file != "" {
			data, err := os.ReadFile(*file)
			if err != nil {
				return core.Workload{}, err
			}
			p, err := program.PersonalityFromJSON(data)
			if err != nil {
				return core.Workload{}, err
			}
			return core.WorkloadFromPersonality(p)
		}
		return core.LoadWorkload(*bench)
	}
}

func cmdPersonality(args []string) error {
	fs := flag.NewFlagSet("personality", flag.ExitOnError)
	bench := fs.String("benchmark", "gzip", "built-in workload to dump")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := program.ByName(*bench)
	if err != nil {
		return err
	}
	data, err := p.JSON()
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func cmdList() error {
	fmt.Println("benchmark  blocks  static-insts  phases")
	for _, w := range core.Workloads() {
		fmt.Printf("%-10s %6d %13d %7d\n", w.Name, len(w.Prog.Blocks), w.Prog.NumStaticInstrs(), w.Pers.Phases)
	}
	return nil
}

func printMetrics(label string, m core.Metrics) {
	fmt.Printf("%-12s IPC=%.4f  EPC=%.2fW  EDP=%.3f  cycles=%d  insts=%d  mispred/KI=%.2f\n",
		label, m.IPC(), m.EPC(), m.EDP(), m.Cycles, m.Instructions,
		m.Branch.MispredictsPerKI(m.Instructions))
}

func cmdEDS(args []string) error {
	fs := flag.NewFlagSet("eds", flag.ExitOnError)
	load := workloadFlags(fs)
	n := fs.Uint64("n", 1_000_000, "instructions to simulate")
	seed := fs.Uint64("seed", 1, "execution seed")
	power := fs.Bool("power", false, "print the per-unit power breakdown")
	ob := obsFlags(fs, "statsim eds")
	mkCfg := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := load()
	if err != nil {
		return err
	}
	cfg := mkCfg()
	_, sp := ob.stage(obs.StageReference)
	m := core.Reference(cfg, w.Stream(*seed, 0, *n))
	sp.EndInstructions(m.Instructions)
	printMetrics(w.Name+"/eds", m)
	if *power {
		fmt.Print(m.Power)
	}
	return ob.finish(func(man *obs.Manifest) {
		man.ConfigFingerprint = obs.Fingerprint(cfg)
		man.Workload = w.Name
		man.Seed = *seed
		man.StreamLength = *n
		man.Metrics = core.ManifestMetrics(m)
	})
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	load := workloadFlags(fs)
	n := fs.Uint64("n", 1_000_000, "instructions to profile")
	seed := fs.Uint64("seed", 1, "execution seed")
	k := fs.Int("k", 1, "SFG order")
	immediate := fs.Bool("immediate", false, "use immediate-update branch profiling")
	shards := fs.Int("profile-shards", 1, "parallel profiling shards (>1 enables interval-sharded profiling)")
	shardInterval := fs.Uint64("profile-shard-interval", 0, "sharded profiling slab length (0 = default 65536)")
	out := fs.String("o", "", "output profile file (required)")
	ob := obsFlags(fs, "statsim profile")
	mkCfg := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("profile: -o is required")
	}
	w, err := load()
	if err != nil {
		return err
	}
	cfg := mkCfg()
	_, sp := ob.stage(obs.StageProfile)
	g, err := core.Profile(cfg, w.Stream(*seed, 0, *n),
		core.ProfileOptions{K: *k, ImmediateUpdate: *immediate, Shards: *shards, ShardInterval: *shardInterval})
	if err != nil {
		return err
	}
	sp.EndInstructions(g.TotalInstructions)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.Save(f); err != nil {
		return err
	}
	fmt.Printf("%s: k=%d SFG with %d nodes, %d edges over %d instructions -> %s\n",
		w.Name, *k, g.NumNodes(), g.NumEdges(), g.TotalInstructions, *out)
	return ob.finish(func(man *obs.Manifest) {
		man.ConfigFingerprint = obs.Fingerprint(cfg)
		man.Workload = w.Name
		man.K = *k
		man.Seed = *seed
		man.StreamLength = *n
	})
}

func loadProfile(path string) (*sfg.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sfg.Load(f)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	prof := fs.String("profile", "", "profile file from `statsim profile` (required)")
	target := fs.Uint64("target", 100_000, "synthetic trace length target")
	seed := fs.Uint64("seed", 1, "trace generation seed")
	out := fs.String("o", "", "output trace file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *prof == "" || *out == "" {
		return fmt.Errorf("generate: -profile and -o are required")
	}
	g, err := loadProfile(*prof)
	if err != nil {
		return err
	}
	src, err := synthTrace(g, core.ReductionFor(g, *target), *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := trace.WriteTrace(f, src)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d synthetic instructions -> %s\n", n, *out)
	return nil
}

func synthTrace(g *sfg.Graph, r, seed uint64) (trace.Source, error) {
	red, err := synth.Reduce(g, synth.Options{R: r, Seed: seed})
	if err != nil {
		return nil, err
	}
	return red.NewTrace(seed), nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	prof := fs.String("profile", "", "profile file from `statsim profile`")
	traceFile := fs.String("trace-file", "", "trace file from `statsim generate` (alternative to -profile)")
	target := fs.Uint64("target", 100_000, "synthetic trace length target")
	seed := fs.Uint64("seed", 1, "trace generation seed")
	ob := obsFlags(fs, "statsim simulate")
	mkCfg := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := mkCfg()
	var m core.Metrics
	var red uint64
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		_, sp := ob.stage(obs.StageSimulate)
		m = core.SimulateTrace(cfg, r)
		sp.EndInstructions(m.Instructions)
		if err := r.Err(); err != nil {
			return err
		}
		printMetrics("statsim", m)
	case *prof != "":
		g, err := loadProfile(*prof)
		if err != nil {
			return err
		}
		red = core.ReductionFor(g, *target)
		if m, err = core.StatSimTraced(ob.context(), cfg, g, red, *seed); err != nil {
			return err
		}
		printMetrics("statsim", m)
	default:
		return fmt.Errorf("simulate: one of -profile or -trace-file is required")
	}
	return ob.finish(func(man *obs.Manifest) {
		man.ConfigFingerprint = obs.Fingerprint(cfg)
		man.SimSeed = *seed
		man.Reduction = red
		man.Metrics = core.ManifestMetrics(m)
	})
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	load := workloadFlags(fs)
	n := fs.Uint64("n", 1_000_000, "reference instructions")
	target := fs.Uint64("target", 100_000, "synthetic trace length target")
	seed := fs.Uint64("seed", 1, "seed")
	k := fs.Int("k", 1, "SFG order")
	ob := obsFlags(fs, "statsim compare")
	mkCfg := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := load()
	if err != nil {
		return err
	}
	cfg := mkCfg()
	_, sp := ob.stage(obs.StageReference)
	eds := core.Reference(cfg, w.Stream(*seed, 0, *n))
	sp.EndInstructions(eds.Instructions)
	_, sp = ob.stage(obs.StageProfile)
	g, err := core.Profile(cfg, w.Stream(*seed, 0, *n), core.ProfileOptions{K: *k})
	if err != nil {
		return err
	}
	sp.EndInstructions(g.TotalInstructions)
	red := core.ReductionFor(g, *target)
	ss, err := core.StatSimTraced(ob.context(), cfg, g, red, *seed)
	if err != nil {
		return err
	}
	printMetrics(w.Name+"/eds", eds)
	printMetrics(w.Name+"/ss", ss)
	fmt.Printf("errors: IPC %.2f%%  EPC %.2f%%  EDP %.2f%%\n",
		100*stats.AbsError(ss.IPC(), eds.IPC()),
		100*stats.AbsError(ss.EPC(), eds.EPC()),
		100*stats.AbsError(ss.EDP(), eds.EDP()))
	return ob.finish(func(man *obs.Manifest) {
		man.ConfigFingerprint = obs.Fingerprint(cfg)
		man.Workload = w.Name
		man.K = *k
		man.Seed = *seed
		man.SimSeed = *seed
		man.Reduction = red
		man.StreamLength = *n
		man.Metrics = core.ManifestMetrics(ss)
	})
}
