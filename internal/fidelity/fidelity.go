// Package fidelity is the adaptive fidelity engine: it answers "what is
// this workload's IPC/EPC on this configuration" with a confidence
// interval instead of a point estimate, spending detailed simulation
// only where the cheap statistical model is too uncertain.
//
// The construction is two-phase stratified sampling (Ekman & Stenström)
// combined with online model escalation (Lavin et al.), built from the
// three models the framework already has:
//
//  1. Stratify: the committed stream is split into fixed-length
//     intervals and clustered into phases by SimPoint-style BBV
//     clustering (internal/simpoint). Each cluster is one stratum,
//     weighted by its share of intervals.
//  2. Estimate cheaply: a deterministic sample of member intervals per
//     stratum is profiled into per-interval SFGs and statistically
//     simulated (core.StatSim) with several synthetic-trace seeds. The
//     spread across member intervals gives each stratum a sample
//     variance; a documented bias allowance covers the statistical
//     model's known systematic error (§4.2 reports up to ~14% IPC error
//     on these workloads).
//  3. Escalate: while the Student-t confidence interval on the
//     stratified CPI estimate is wider than the requested target, the
//     stratum contributing the most uncertainty is re-evaluated with
//     execution-driven simulation of the same member intervals — exact
//     per-interval values, so the stratum's bias allowance collapses to
//     a small residual — until the target is met or the
//     detailed-instruction budget is exhausted.
//
// Both models measure intervals under SMARTS-style functional warming:
// cache and branch-predictor state is carried over the interval's whole
// prefix by locality-only replay (profiler warm phase, cpu.WarmState),
// so sampled measurements do not suffer cold-structure bias, and only
// the short pipeline warm window plus the interval itself count as
// detailed work.
//
// Everything is deterministic given the options: the stratification,
// the member sample, every simulation seed and the escalation order,
// so repeated runs are byte-identical regardless of pool parallelism.
package fidelity

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sfg"
	"repro/internal/simpoint"
	"repro/internal/stats"
)

// Pool is the worker-pool surface the engine fans interval evaluations
// out on; *service.Pool satisfies it. A nil Pool runs evaluations
// serially (still correct, just slower).
type Pool interface {
	Do(ctx context.Context, fn func(context.Context) error) error
}

// Options configures the engine. N is required and K is taken as given
// (0 is the zero-order SFG); the zero value of every other field takes
// a documented default.
type Options struct {
	// N is the committed-stream length to cover (required).
	N uint64
	// Interval is the stratification interval length (default N/20,
	// floor 1,000). Intervals are the sampling units; the detailed
	// budget is spent in whole intervals.
	Interval uint64
	// K is the SFG order for the cheap per-interval profiles.
	K int
	// Seed is the workload execution seed (default 1).
	Seed uint64
	// SimSeed is the base synthetic-trace seed; replication r of any
	// interval uses SimSeed+r (default 1).
	SimSeed uint64
	// MaxK bounds the number of strata (simpoint.Options.MaxK,
	// default 10).
	MaxK int

	// Confidence is the interval's confidence level: 0.90, 0.95 or
	// 0.99 (default 0.95).
	Confidence float64
	// TargetCI is the convergence target: the interval's relative
	// half-width (half-width / estimate, on CPI) the escalation loop
	// drives toward (default 0.02).
	TargetCI float64
	// MaxDetailedFrac bounds detailed simulation: escalations stop once
	// the next one would push detailed instructions (measured + warm)
	// past this fraction of the covered stream (default 0.25; negative
	// disables escalation entirely).
	MaxDetailedFrac float64
}

// The engine's fixed sampling and error model.
const (
	// maxWarmup caps the detailed warm window. Each detailed interval
	// run is preceded by min(Interval/2, maxWarmup, interval start)
	// instructions through the full execution-driven model (unmeasured)
	// so pipeline state — RUU and queue occupancy, in-flight misses —
	// is realistic at the interval boundary; pipeline ramp is short.
	// Warm instructions count against the detailed budget.
	//
	// Cache and branch-predictor state needs far more history than any
	// affordable detailed window (SMARTS's cold-structure problem), so
	// the engine always carries it across the entire prefix by
	// functional warming — cheap locality-only replay (cpu.WarmState
	// for detailed runs, the profiler's warm phase for cheap ones) that
	// does not count as detailed simulation.
	maxWarmup = 2000
	// cheapSeeds is the number of synthetic-trace replications per
	// sampled interval; their mean is the interval's cheap observation
	// and their spread seeds singleton-stratum variance.
	cheapSeeds = 3
	// samplesPerStratum is the number of member intervals sampled per
	// stratum (clamped to the stratum's population).
	samplesPerStratum = 3
	// minCheapTarget floors the synthetic trace length per cheap
	// replication, max(Interval/5, minCheapTarget).
	minCheapTarget = 2000
	// cheapBias is the relative bias allowance per cheap-estimated
	// stratum: a bound on the statistical model's systematic CPI error,
	// cf. the §4.2 reproduction where per-workload IPC error reaches
	// 14%.
	cheapBias = 0.15
	// detailedBias is the residual relative allowance per detailed
	// stratum, covering interval-boundary and warm-up approximation.
	detailedBias = 0.015
)

func (o Options) withDefaults() (Options, error) {
	if o.N == 0 {
		return o, fmt.Errorf("fidelity: Options.N is required")
	}
	if o.Interval == 0 {
		o.Interval = o.N / 20
		if o.Interval < 1000 {
			o.Interval = 1000
		}
	}
	if o.Interval > o.N {
		return o, fmt.Errorf("fidelity: interval %d exceeds stream length %d", o.Interval, o.N)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SimSeed == 0 {
		o.SimSeed = 1
	}
	if o.MaxK == 0 {
		o.MaxK = 10
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.TargetCI == 0 {
		o.TargetCI = 0.02
	}
	if o.MaxDetailedFrac == 0 {
		o.MaxDetailedFrac = 0.25
	}
	if _, err := stats.TCritical(o.Confidence, 1); err != nil {
		return o, err
	}
	return o, nil
}

// sample is one sampled member interval of a stratum, with its cheap
// profile measured at engine construction.
type sample struct {
	stratum  int
	interval int    // interval index
	start    uint64 // stream offset of the interval
	length   uint64 // measured instructions
	warm     uint64 // warm instructions preceding it
	profile  *sfg.Graph
}

// observation is one interval's measured (CPI, EPI) pair, from either
// model.
type observation struct {
	cpi, epi float64
	seedSD   float64 // CPI spread across synthetic seeds
}

// stratumState is one stratum's evolving estimate inside Run.
type stratumState struct {
	members  []int
	sampled  []int // indices into Engine.samples
	weight   float64
	detailed bool
	obs      []observation
}

// Engine is a reusable adaptive-fidelity evaluator for one workload:
// construction stratifies the stream and builds the per-interval cheap
// profiles; Run evaluates one configuration. The per-interval profiles
// are measured under the construction config's locality structures, so
// Run accepts any configuration that keeps cache and predictor
// structures unchanged (the same invariant SFG reuse has, §2.1.2) —
// which is exactly what a design-space sweep over window sizes and
// widths varies.
type Engine struct {
	w       core.Workload
	base    cpu.Config
	opts    Options
	covered uint64 // instructions covered by kept intervals
	strata  []stratumInit
	samples []sample
}

// stratumInit is the immutable stratification result.
type stratumInit struct {
	members []int
	sampled []int
	weight  float64
}

// localityFingerprint pins the structures profiling depends on.
func localityFingerprint(cfg cpu.Config) string {
	return obs.Fingerprint(struct {
		Hier          interface{}
		Bpred         interface{}
		PerfectCaches bool
		PerfectBpred  bool
		IFQ           int
	}{cfg.Hier, cfg.Bpred, cfg.PerfectCaches, cfg.PerfectBpred, cfg.IFQSize})
}

// New stratifies the workload's stream and profiles the sampled member
// intervals (in parallel on pool when non-nil). The returned engine is
// immutable and safe for concurrent Run calls.
func New(ctx context.Context, pool Pool, cfg cpu.Config, w core.Workload, opts Options) (*Engine, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	clusters, err := simpoint.Clusters(w.Stream(opts.Seed, 0, opts.N), simpoint.Options{
		IntervalLen: opts.Interval,
		MaxK:        opts.MaxK,
		Seed:        opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("fidelity: stratifying: %w", err)
	}
	e := &Engine{w: w, base: cfg, opts: opts}

	intervalLen := func(iv int) uint64 {
		start := uint64(iv) * opts.Interval
		length := opts.Interval
		if start+length > opts.N {
			length = opts.N - start
		}
		return length
	}
	for iv := 0; iv < clusters.Intervals; iv++ {
		e.covered += intervalLen(iv)
	}

	for si, members := range clusters.Members {
		m := min(samplesPerStratum, len(members))
		st := stratumInit{members: members, weight: clusters.Points[si].Weight}
		if m == 1 {
			// A single sample: the cluster's representative, the member
			// closest to the centroid.
			st.sampled = append(st.sampled, len(e.samples))
			e.samples = append(e.samples, e.newSample(si, clusters.Points[si].Interval, intervalLen))
		} else {
			// Deterministic even spread across the member list, first
			// and last included: within-stratum heterogeneity shows up
			// in the sample instead of hiding between picks.
			prev := -1
			for j := 0; j < m; j++ {
				iv := members[j*(len(members)-1)/(m-1)]
				if iv == prev {
					continue
				}
				prev = iv
				st.sampled = append(st.sampled, len(e.samples))
				e.samples = append(e.samples, e.newSample(si, iv, intervalLen))
			}
		}
		e.strata = append(e.strata, st)
	}

	// Cheap profiles for every sampled interval, fanned out on the
	// pool. Each profile replays the stream from its beginning with the
	// whole prefix as warm-up, so the measured cache and predictor
	// statistics reflect fully-warm structures — the same functional
	// warming the detailed path uses.
	err = pmap(ctx, pool, len(e.samples), func(ctx context.Context, i int) error {
		s := &e.samples[i]
		g, err := core.Profile(cfg, w.Stream(opts.Seed, 0, s.start+s.length),
			core.ProfileOptions{K: opts.K, Warmup: s.start})
		if err != nil {
			return fmt.Errorf("fidelity: profiling interval %d: %w", s.interval, err)
		}
		s.profile = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) newSample(stratum, iv int, intervalLen func(int) uint64) sample {
	start := uint64(iv) * e.opts.Interval
	warm := min(e.opts.Interval/2, maxWarmup, start)
	return sample{stratum: stratum, interval: iv, start: start, length: intervalLen(iv), warm: warm}
}

// Covered returns the instructions the stratification covers (N, minus
// a dropped sub-half-interval tail).
func (e *Engine) Covered() uint64 { return e.covered }

// Strata returns the number of strata the stream clustered into.
func (e *Engine) Strata() int { return len(e.strata) }

// detailedCost is what escalating stratum si costs in detailed
// instructions: every sampled interval re-runs execution-driven,
// warm-up included.
func (e *Engine) detailedCost(si int) uint64 {
	var cost uint64
	for _, s := range e.strata[si].sampled {
		cost += e.samples[s].warm + e.samples[s].length
	}
	return cost
}

// Run evaluates one configuration: cheap estimates for every stratum,
// then escalation until the confidence target is met or the detailed
// budget is exhausted. cfg must keep the locality structures the engine
// was constructed with.
func (e *Engine) Run(ctx context.Context, pool Pool, cfg cpu.Config) (*Result, error) {
	if got, want := localityFingerprint(cfg), localityFingerprint(e.base); got != want {
		return nil, fmt.Errorf("fidelity: config changes the profiled locality structures (fingerprint %s != %s); rebuild the engine", got, want)
	}
	opts := e.opts

	// Phase 1: cheap observations for every sampled interval.
	cheap := make([]observation, len(e.samples))
	err := pmap(ctx, pool, len(e.samples), func(ctx context.Context, i int) error {
		o, err := e.cheapEval(cfg, &e.samples[i])
		if err != nil {
			return err
		}
		cheap[i] = o
		return nil
	})
	if err != nil {
		return nil, err
	}

	strata := make([]stratumState, len(e.strata))
	for i, st := range e.strata {
		strata[i] = stratumState{members: st.members, sampled: st.sampled, weight: st.weight}
		for _, s := range st.sampled {
			strata[i].obs = append(strata[i].obs, cheap[s])
		}
	}

	res := &Result{
		Workload:                e.w.Name,
		Confidence:              opts.Confidence,
		TargetCI:                opts.TargetCI,
		CoveredInstructions:     e.covered,
		MaxDetailedInstructions: e.budget(),
	}

	// Phase 2: escalation loop. Each iteration recomputes the stratified
	// CI, stops on convergence, otherwise escalates the stratum whose
	// uncertainty contribution is largest among those that fit the
	// remaining budget.
	for {
		ci, err := e.stratifiedCPI(strata)
		if err != nil {
			return nil, err
		}
		rel := ci.RelHalfWidth()
		if n := len(res.Escalations); n > 0 {
			res.Escalations[n-1].HalfWidthAfter = rel
		}
		if rel <= opts.TargetCI {
			res.Converged = true
			break
		}
		pick := -1
		var pickKey float64
		for si := range strata {
			if strata[si].detailed {
				continue
			}
			if res.DetailedInstructions+e.detailedCost(si) > res.MaxDetailedInstructions {
				continue
			}
			key := e.contribution(&strata[si])
			if pick == -1 || key > pickKey {
				pick, pickKey = si, key
			}
		}
		if pick == -1 {
			break // nothing escalatable fits the budget
		}
		cost := e.detailedCost(pick)
		esc := Escalation{Stratum: pick, DetailedInsts: cost, HalfWidthBefore: rel}
		err = pmap(ctx, pool, len(strata[pick].sampled), func(ctx context.Context, j int) error {
			s := &e.samples[strata[pick].sampled[j]]
			strata[pick].obs[j] = e.detailedEval(cfg, s)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, s := range strata[pick].sampled {
			esc.Intervals = append(esc.Intervals, e.samples[s].interval)
		}
		strata[pick].detailed = true
		res.DetailedInstructions += cost
		res.Escalations = append(res.Escalations, esc)
	}

	return e.finish(res, strata)
}

// budget returns the detailed-instruction budget.
func (e *Engine) budget() uint64 {
	if e.opts.MaxDetailedFrac < 0 {
		return 0
	}
	return uint64(e.opts.MaxDetailedFrac * float64(e.covered))
}

// cheapEval statistically simulates one sampled interval: cheapSeeds
// synthetic replications from its per-interval profile, averaged.
func (e *Engine) cheapEval(cfg cpu.Config, s *sample) (observation, error) {
	red := core.ReductionFor(s.profile, max(e.opts.Interval/5, minCheapTarget))
	cpis := make([]float64, 0, cheapSeeds)
	epis := make([]float64, 0, cheapSeeds)
	for r := 0; r < cheapSeeds; r++ {
		m, err := core.StatSim(cfg, s.profile, red, e.opts.SimSeed+uint64(r))
		if err != nil {
			return observation{}, fmt.Errorf("fidelity: statsim interval %d seed %d: %w", s.interval, r, err)
		}
		if m.Instructions == 0 {
			return observation{}, fmt.Errorf("fidelity: statsim interval %d produced no instructions", s.interval)
		}
		cpis = append(cpis, m.CPI())
		epis = append(epis, m.EPI())
	}
	return observation{
		cpi:    stats.Mean(cpis),
		epi:    stats.Mean(epis),
		seedSD: stats.StdDev(cpis),
	}, nil
}

// detailedEval runs the execution-driven reference over one sampled
// interval: the prefix up to the detailed warm window is functionally
// warmed (locality state only, not counted as detailed work), the warm
// window runs through the full model unmeasured, and the interval
// itself is measured.
func (e *Engine) detailedEval(cfg cpu.Config, s *sample) observation {
	ws := cpu.NewWarmState(cfg)
	ws.Warm(e.w.Stream(e.opts.Seed, 0, s.start-s.warm))
	wcfg := cfg
	wcfg.WarmupInsts = s.warm
	m := core.ReferenceWarmed(wcfg, ws, e.w.Stream(e.opts.Seed, s.start-s.warm, s.warm+s.length))
	return observation{cpi: m.CPI(), epi: m.EPI()}
}

// summary converts one stratum's observations into the stats.Stratum
// pair (CPI, EPI) the stratified estimator consumes.
func (e *Engine) summary(st *stratumState) (cpi, epi stats.Stratum) {
	cpis := make([]float64, len(st.obs))
	epis := make([]float64, len(st.obs))
	var seedSD float64
	for i, o := range st.obs {
		cpis[i], epis[i] = o.cpi, o.epi
		seedSD += o.seedSD
	}
	seedSD /= float64(len(st.obs))
	cpi = stats.Stratum{Weight: st.weight, Mean: stats.Mean(cpis), Sigma: stats.StdDev(cpis), N: len(st.obs)}
	epi = stats.Stratum{Weight: st.weight, Mean: stats.Mean(epis), Sigma: stats.StdDev(epis), N: len(st.obs)}
	if len(st.obs) == 1 && !st.detailed {
		// A singleton cheap stratum still carries the synthetic-seed
		// spread as sampling noise.
		cpi.Sigma = seedSD
	}
	relBias := cheapBias
	if st.detailed {
		relBias = detailedBias
	}
	cpi.Bias = relBias * math.Abs(cpi.Mean)
	epi.Bias = relBias * math.Abs(epi.Mean)
	return cpi, epi
}

// stratifiedCPI assembles the CPI confidence interval across strata.
func (e *Engine) stratifiedCPI(strata []stratumState) (stats.CI, error) {
	ss := make([]stats.Stratum, len(strata))
	for i := range strata {
		ss[i], _ = e.summary(&strata[i])
	}
	return stats.StratifiedCI(ss, e.opts.Confidence)
}

// contribution is the escalation key: the stratum's additive share of
// the interval half-width (bias allowance plus standard error), in CPI
// units. Ties break toward the lower stratum index in the caller.
func (e *Engine) contribution(st *stratumState) float64 {
	cpi, _ := e.summary(st)
	se := 0.0
	if cpi.N > 0 {
		se = cpi.Sigma / math.Sqrt(float64(cpi.N))
	}
	return cpi.Weight * (cpi.Bias + se)
}

// finish derives the reported estimates from the final strata.
func (e *Engine) finish(res *Result, strata []stratumState) (*Result, error) {
	cpiStrata := make([]stats.Stratum, len(strata))
	epiStrata := make([]stats.Stratum, len(strata))
	for i := range strata {
		cpiStrata[i], epiStrata[i] = e.summary(&strata[i])
	}
	cpiCI, err := stats.StratifiedCI(cpiStrata, e.opts.Confidence)
	if err != nil {
		return nil, err
	}
	epiCI, err := stats.StratifiedCI(epiStrata, e.opts.Confidence)
	if err != nil {
		return nil, err
	}
	if cpiCI.Mean <= 0 {
		return nil, fmt.Errorf("fidelity: non-positive CPI estimate %v", cpiCI.Mean)
	}
	res.CPI = cpiCI
	res.RelHalfWidth = cpiCI.RelHalfWidth()
	res.IPC = 1 / cpiCI.Mean
	res.IPCLo, res.IPCHi = invertInterval(cpiCI)

	// EPC = EPI / CPI; the two estimates share inputs, so the relative
	// half-widths add — conservative, never anti-conservative.
	if epiCI.Mean > 0 {
		res.EPC = epiCI.Mean / cpiCI.Mean
		relEPC := epiCI.RelHalfWidth() + cpiCI.RelHalfWidth()
		res.EPCLo = res.EPC * (1 - relEPC)
		if res.EPCLo < 0 {
			res.EPCLo = 0
		}
		res.EPCHi = res.EPC * (1 + relEPC)
	}
	if res.CoveredInstructions > 0 {
		res.DetailedFrac = float64(res.DetailedInstructions) / float64(res.CoveredInstructions)
	}
	for i := range strata {
		st := &strata[i]
		rep := StratumReport{
			Members:  len(st.members),
			Weight:   st.weight,
			Detailed: st.detailed,
			MeanCPI:  cpiStrata[i].Mean,
			SigmaCPI: cpiStrata[i].Sigma,
		}
		for _, s := range st.sampled {
			rep.Sampled = append(rep.Sampled, e.samples[s].interval)
		}
		if rep.MeanCPI > 0 {
			rep.MeanIPC = 1 / rep.MeanCPI
		}
		res.Strata = append(res.Strata, rep)
	}
	return res, nil
}

// invertInterval maps a CPI interval to the IPC interval [1/hi, 1/lo]
// (monotone transform; an interval reaching 0 caps IPC at +Inf, which
// cannot happen for the floors the engine uses but keeps the math
// total).
func invertInterval(ci stats.CI) (lo, hi float64) {
	if ci.Hi > 0 {
		lo = 1 / ci.Hi
	}
	if ci.Lo > 0 {
		hi = 1 / ci.Lo
	} else {
		hi = math.Inf(1)
	}
	return lo, hi
}

// pmap runs f(0..n-1) on the pool (serially when pool is nil), failing
// fast on the first error. Each index writes only its own state, so
// completion order cannot affect results.
func pmap(ctx context.Context, pool Pool, n int, f func(ctx context.Context, i int) error) error {
	if pool == nil {
		if ctx == nil {
			ctx = context.Background()
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = pool.Do(ctx, func(ctx context.Context) error { return f(ctx, i) })
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
