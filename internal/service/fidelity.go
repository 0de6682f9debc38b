package service

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fidelity"
	"repro/internal/obs"
)

// maxFidelitySweepPoints bounds fidelity-mode sweep grids: every point
// re-evaluates the stratified estimator (with possible detailed
// escalations), so a fidelity sweep is orders of magnitude heavier per
// point than a statistical-only one.
const maxFidelitySweepPoints = 64

// FidelitySpec is the "fidelity" knob on /v1/simulate and /v1/sweep:
// its presence switches the request from single-model statistical
// simulation to the adaptive fidelity engine, which returns confidence
// intervals and escalates the least-certain phase strata to
// execution-driven simulation. Zero fields take the engine defaults.
type FidelitySpec struct {
	// TargetCI is the relative CI half-width to converge to (default
	// 0.02).
	TargetCI float64 `json:"target_ci"`
	// MaxDetailedFrac caps execution-driven work as a fraction of the
	// covered stream (default 0.25).
	MaxDetailedFrac float64 `json:"max_detailed_frac,omitempty"`
	// Confidence is the interval's level: 0.90, 0.95 or 0.99 (default
	// 0.95).
	Confidence float64 `json:"confidence,omitempty"`
	// Interval overrides the stratification interval length.
	Interval uint64 `json:"interval,omitempty"`
	// MaxK bounds the number of phase strata (default 10).
	MaxK int `json:"max_k,omitempty"`
}

// options maps the wire spec plus the request's profile key (validated
// by ProfileSpec.key) and synthetic-trace seed onto engine options, so
// the engine computes exactly the key the response names. Validation
// beyond what the engine itself checks: fractions must be sane, and an
// immediate-update key is refused because the engine profiles with
// delayed update only.
func (f FidelitySpec) options(key ProfileKey, simSeed uint64) (fidelity.Options, error) {
	if f.TargetCI < 0 || f.TargetCI >= 1 {
		return fidelity.Options{}, badRequest("fidelity.target_ci=%v outside (0,1)", f.TargetCI)
	}
	if f.MaxDetailedFrac < 0 || f.MaxDetailedFrac > 1 {
		return fidelity.Options{}, badRequest("fidelity.max_detailed_frac=%v outside [0,1]", f.MaxDetailedFrac)
	}
	if key.Immediate {
		return fidelity.Options{}, badRequest("profile.immediate is not supported with fidelity: the engine profiles with delayed update only")
	}
	return fidelity.Options{
		N:               key.N,
		Interval:        f.Interval,
		K:               key.K,
		Seed:            key.Seed,
		SimSeed:         simSeed,
		MaxK:            f.MaxK,
		Confidence:      f.Confidence,
		TargetCI:        f.TargetCI,
		MaxDetailedFrac: f.MaxDetailedFrac,
	}, nil
}

// fidelityCounters aggregates the engine's activity daemon-wide; served
// as FidelityStats on /metrics and as the statsimd_fidelity_* families
// on the Prometheus exposition.
type fidelityCounters struct {
	mu            sync.Mutex
	runs          uint64
	converged     uint64
	escalations   uint64
	detailedInsts uint64
	ciWidthSum    float64
	ciWidthCount  uint64
}

// FidelityStats is the wire form of the daemon's fidelity-engine
// activity. CIWidthSum/CIWidthCount expose the mean achieved relative
// half-width the Prometheus way (a ratio the scraper computes), so the
// JSON and text expositions agree.
type FidelityStats struct {
	Runs          uint64  `json:"runs"`
	Converged     uint64  `json:"converged"`
	Escalations   uint64  `json:"escalations"`
	DetailedInsts uint64  `json:"detailed_insts"`
	CIWidthSum    float64 `json:"ci_width_sum"`
	CIWidthCount  uint64  `json:"ci_width_count"`
}

func (c *fidelityCounters) note(res *fidelity.Result) {
	c.mu.Lock()
	c.runs++
	if res.Converged {
		c.converged++
	}
	c.escalations += uint64(len(res.Escalations))
	c.detailedInsts += res.DetailedInstructions
	c.ciWidthSum += res.RelHalfWidth
	c.ciWidthCount++
	c.mu.Unlock()
}

func (c *fidelityCounters) stats() FidelityStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return FidelityStats{
		Runs:          c.runs,
		Converged:     c.converged,
		Escalations:   c.escalations,
		DetailedInsts: c.detailedInsts,
		CIWidthSum:    c.ciWidthSum,
		CIWidthCount:  c.ciWidthCount,
	}
}

// noteFidelity lands one engine run in the daemon-wide counters and the
// request's telemetry (flight-recorder event, log line).
func (s *Server) noteFidelity(ri *reqInfo, res *fidelity.Result) {
	s.fidelity.note(res)
	if ri != nil {
		ri.escalations.Add(int64(len(res.Escalations)))
		ri.detailedInsts.Add(res.DetailedInstructions)
		ri.ciWidth.Store(math.Float64bits(res.RelHalfWidth))
	}
}

// annotateFidelitySpan lands an engine run's outcome on its span: how
// many strata it stratified into, how much escalated to detailed
// simulation, and whether the interval converged — the span-tree view
// of the escalation decision the flight recorder only counts.
func annotateFidelitySpan(span obs.ActiveSpan, res *fidelity.Result) {
	span.Annotate("strata", strconv.Itoa(len(res.Strata)))
	span.Annotate("escalations", strconv.Itoa(len(res.Escalations)))
	span.Annotate("converged", strconv.FormatBool(res.Converged))
	span.Annotate("rel_half_width", strconv.FormatFloat(res.RelHalfWidth, 'g', 4, 64))
}

// fidelityMetrics derives the point-estimate wire metrics from an
// engine result: cycles are reconstructed from the CPI estimate so
// EDP and derived rates stay consistent with the interval's centre.
func fidelityMetrics(res *fidelity.Result) SimMetrics {
	m := SimMetrics{
		IPC:          res.IPC,
		EPC:          res.EPC,
		Instructions: res.CoveredInstructions,
		Cycles:       uint64(math.Round(res.CPI.Mean * float64(res.CoveredInstructions))),
	}
	if res.IPC > 0 {
		m.EDP = res.EPC / (res.IPC * res.IPC)
	}
	return m
}

// runFidelitySimulate is the /v1/simulate path when the request carries
// a fidelity spec. The engine runs on the handler goroutine and fans
// its interval evaluations out through the worker pool (the same
// inversion the sweep engine uses — wrapping the whole engine in
// pool.Do would deadlock its inner submissions behind itself).
func (s *Server) runFidelitySimulate(r *http.Request, req SimulateRequest) (any, error) {
	ctx := r.Context()
	key, err := req.Profile.key(s.opts)
	if err != nil {
		return nil, err
	}
	fopts, err := req.Fidelity.options(key, req.SimSeed)
	if err != nil {
		return nil, err
	}
	if err := s.faults.Fire(SiteSimulateJob); err != nil {
		return nil, err
	}
	w, err := core.LoadWorkload(key.Workload)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	start := time.Now()
	cfg := req.Config.apply(cpu.DefaultConfig())
	eng, err := fidelity.New(ctx, s.pool, cfg, w, fopts)
	if err != nil {
		return nil, err
	}
	_, span := obs.TracerFromContext(ctx).StartSpan(ctx, "fidelity.run")
	res, err := eng.Run(ctx, s.pool, cfg)
	if err != nil {
		span.Annotate("error", err.Error())
		span.End()
		return nil, err
	}
	annotateFidelitySpan(span, res)
	span.End()
	s.noteFidelity(requestInfo(ctx), res)
	s.log.Debug("fidelity run", "trace_id", obs.TraceIDFromContext(ctx),
		"workload", key.Workload, "strata", len(res.Strata),
		"escalations", len(res.Escalations), "converged", res.Converged,
		"rel_half_width", res.RelHalfWidth, "detailed_frac", res.DetailedFrac)
	s.writeManifest(ctx, "/v1/simulate", func(m *obs.Manifest) {
		m.ConfigFingerprint = obs.Fingerprint(cfg)
		m.Workload = key.Workload
		m.K = key.K
		m.Seed = key.Seed
		m.SimSeed = req.SimSeed
		m.StreamLength = key.N
		m.Fidelity = res.Manifest()
	})
	return SimulateResponse{
		Key:       key,
		Metrics:   fidelityMetrics(res),
		Fidelity:  res,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// runFidelitySweep is the /v1/sweep path when the request carries a
// fidelity spec: the workload is stratified and profiled once, then
// each design point runs the estimator against the shared engine —
// points sequential, the intervals within each point parallel on the
// pool. Sequential points keep the pool free for intra-point fan-out
// and give the progress feed a meaningful completion order; the
// per-point results land in grid order regardless.
//
// Every grid point varies only window sizes and widths, which keeps the
// engine's profiled locality structures valid across the whole sweep
// (the same invariant plain statistical sweeps rely on).
func (s *Server) runFidelitySweep(r *http.Request, req SweepRequest, points []SweepPoint) (any, error) {
	ctx := r.Context()
	if len(points) > maxFidelitySweepPoints {
		return nil, badRequest("%d points exceed the fidelity sweep limit %d", len(points), maxFidelitySweepPoints)
	}
	key, err := req.Profile.key(s.opts)
	if err != nil {
		return nil, err
	}
	fopts, err := req.Fidelity.options(key, req.SimSeed)
	if err != nil {
		return nil, err
	}
	w, err := core.LoadWorkload(key.Workload)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	start := time.Now()
	base := req.Config.apply(cpu.DefaultConfig())
	eng, err := fidelity.New(ctx, s.pool, base, w, fopts)
	if err != nil {
		return nil, err
	}
	feed := s.progress.feed(obs.TraceIDFromContext(ctx))
	feed.begin(len(points), 0)
	resp := SweepResponse{
		Key:       key,
		Points:    len(points),
		Results:   make([]SweepRow, len(points)),
		ElapsedMS: 0,
	}
	ri := requestInfo(ctx)
	ledger := newCostLedger(s.node, len(points))
	for i, pt := range points {
		_, span := obs.TracerFromContext(ctx).StartSpan(ctx, "fidelity.run")
		span.Annotate("point", strconv.Itoa(i))
		t0 := time.Now()
		res, err := eng.Run(ctx, s.pool, pt.Apply(base))
		if err != nil {
			span.Annotate("error", err.Error())
			span.End()
			feed.finish(err)
			return nil, err
		}
		annotateFidelitySpan(span, res)
		span.End()
		// Fidelity points always run the estimator; the detailed-vs-
		// statistical split happens inside the engine, so the ledger
		// marks the point estimated when the interval did not fully
		// converge to the requested half-width.
		ledger.record(i, TierSimulated, "", -1, time.Since(t0).Seconds(), !res.Converged)
		s.noteFidelity(ri, res)
		m := fidelityMetrics(res)
		resp.Results[i] = SweepRow{Point: pt, Metrics: m, Fidelity: res}
		if m.EDP < resp.Results[resp.Best].Metrics.EDP {
			resp.Best = i
		}
		feed.publishPoint(i, pt, m)
	}
	feed.finish(nil)
	entries := ledger.snapshot()
	s.costs.add(entries)
	if req.Cost {
		resp.Cost = entries
	}
	s.writeManifest(ctx, "/v1/sweep", func(m *obs.Manifest) {
		m.ConfigFingerprint = obs.Fingerprint(base)
		m.Workload = key.Workload
		m.K = key.K
		m.Seed = key.Seed
		m.SimSeed = req.SimSeed
		m.StreamLength = key.N
		m.Cost = manifestCost(entries)
	})
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}
