package service

import (
	"math/bits"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// latencyBuckets bounds the log2-microsecond latency histograms: bucket
// 64 covers everything past ~2.6 hours, far beyond any job timeout.
const latencyBuckets = 64

// LatencyHist is a concurrency-safe latency histogram built on
// stats.Histogram. Observations are bucketed by log2 of the latency in
// microseconds, so the histogram stays tiny while spanning nanoseconds
// to hours; quantiles come back as bucket upper bounds (within 2x of
// the true value — plenty for operational visibility).
type LatencyHist struct {
	mu    sync.Mutex
	h     *stats.Histogram
	sumUS uint64
	maxUS uint64
	errs  uint64
}

// NewLatencyHist returns an empty latency histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{h: stats.NewHistogram(latencyBuckets)}
}

// latencyBucket maps a microsecond latency to its histogram bucket
// (>= 1, as stats.Histogram requires).
func latencyBucket(us uint64) int { return bits.Len64(us) + 1 }

// bucketUpperUS is the largest microsecond latency bucket b holds.
func bucketUpperUS(b int) uint64 {
	if b <= 1 {
		return 0
	}
	return 1<<uint(b-1) - 1
}

// Observe records one request of the given duration; failed requests
// are additionally tallied as errors.
func (l *LatencyHist) Observe(d time.Duration, failed bool) {
	if d < 0 {
		d = 0
	}
	us := uint64(d / time.Microsecond)
	l.mu.Lock()
	l.h.Add(latencyBucket(us))
	l.sumUS += us
	if us > l.maxUS {
		l.maxUS = us
	}
	if failed {
		l.errs++
	}
	l.mu.Unlock()
}

// latencyExport is the raw content of a LatencyHist: per-bucket counts
// (indexed by log2-microsecond bucket, 1..latencyBuckets), the total
// observation count, summed latency and error tally — the material the
// Prometheus text exposition renders cumulative _bucket series from.
type latencyExport struct {
	counts [latencyBuckets + 1]uint64
	total  uint64
	sumUS  uint64
	errs   uint64
}

// export snapshots the histogram's raw buckets.
func (l *LatencyHist) export() latencyExport {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := latencyExport{total: l.h.Total(), sumUS: l.sumUS, errs: l.errs}
	for b := 1; b <= latencyBuckets; b++ {
		e.counts[b] = l.h.Count(b)
	}
	return e
}

// LatencySnapshot summarises one endpoint's request latencies in
// milliseconds.
type LatencySnapshot struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Snapshot returns the current summary.
func (l *LatencyHist) Snapshot() LatencySnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := LatencySnapshot{Count: l.h.Total(), Errors: l.errs}
	if s.Count == 0 {
		return s
	}
	ms := func(us uint64) float64 { return float64(us) / 1000 }
	s.MeanMS = ms(l.sumUS) / float64(s.Count)
	s.P50MS = ms(bucketUpperUS(l.h.Quantile(0.50)))
	s.P90MS = ms(bucketUpperUS(l.h.Quantile(0.90)))
	s.P99MS = ms(bucketUpperUS(l.h.Quantile(0.99)))
	s.MaxMS = ms(l.maxUS)
	return s
}

// knownEndpoints and knownStages are the families every daemon life
// observes; pre-registering them at construction keeps the hot
// observation path off the registry mutex (see Metrics).
var (
	knownEndpoints = []string{"/v1/profile", "/v1/simulate", "/v1/sweep", "/v1/workloads"}
	knownStages    = []string{obs.StageProfile, obs.StageReduce, obs.StageGenerate,
		obs.StageSimulate, obs.StageReference}
)

// Metrics aggregates the daemon's operational counters: per-endpoint
// latency histograms, per-pipeline-stage timing histograms (profile /
// reduce / generate / simulate, fed by the stage spans on each
// request's tracer), plus cache and pool statistics,
// served as JSON by GET /metrics and as Prometheus text exposition by
// GET /metrics?format=prometheus.
//
// The known endpoint and stage families are pre-registered into
// immutable maps at construction, so the per-observation lookup on the
// request path is a lock-free map read; the registry mutex is taken
// only for names the daemon has never seen (custom span names from
// future pipeline stages) and for snapshots.
type Metrics struct {
	start time.Time

	// known is built once in NewMetrics and never mutated afterwards —
	// concurrent lock-free reads are safe.
	knownEndpoints map[string]*LatencyHist
	knownStages    map[string]*LatencyHist

	mu        sync.Mutex
	endpoints map[string]*LatencyHist // unknown names only
	stages    map[string]*LatencyHist // unknown names only
}

// NewMetrics returns a metrics registry with the known endpoint and
// stage families pre-registered.
func NewMetrics() *Metrics {
	m := &Metrics{
		start:          time.Now(),
		knownEndpoints: make(map[string]*LatencyHist, len(knownEndpoints)),
		knownStages:    make(map[string]*LatencyHist, len(knownStages)),
		endpoints:      make(map[string]*LatencyHist),
		stages:         make(map[string]*LatencyHist),
	}
	for _, name := range knownEndpoints {
		m.knownEndpoints[name] = NewLatencyHist()
	}
	for _, name := range knownStages {
		m.knownStages[name] = NewLatencyHist()
	}
	return m
}

// Endpoint returns (creating if needed) the histogram for an endpoint.
// Known endpoints resolve without the registry lock.
func (m *Metrics) Endpoint(name string) *LatencyHist {
	if l, ok := m.knownEndpoints[name]; ok {
		return l
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.endpoints[name]
	if !ok {
		l = NewLatencyHist()
		m.endpoints[name] = l
	}
	return l
}

// StageObserve records one pipeline stage execution. Stage timings use
// the same log2-microsecond buckets as endpoint latencies, so both
// families read identically off /metrics. Known stages resolve without
// the registry lock.
func (m *Metrics) StageObserve(name string, d time.Duration) {
	if l, ok := m.knownStages[name]; ok {
		l.Observe(d, false)
		return
	}
	m.mu.Lock()
	l, ok := m.stages[name]
	if !ok {
		l = NewLatencyHist()
		m.stages[name] = l
	}
	m.mu.Unlock()
	l.Observe(d, false)
}

// ObserveStages folds a request's stage timings (obs.Tracer.Stages)
// into the per-stage families: one observation per stage the request
// ran, of that stage's self time.
func (m *Metrics) ObserveStages(stages []obs.StageTiming) {
	for _, st := range stages {
		m.StageObserve(st.Name, time.Duration(st.DurationS*float64(time.Second)))
	}
}

// RobustnessStats counts the degradation machinery's activity — the
// numbers an operator alerts on (see the README runbook): shed requests
// mean sustained overload, retries mean flaky jobs, resumed sweep
// points mean checkpoints doing their job after interruptions.
type RobustnessStats struct {
	Shed               uint64 `json:"shed_requests"`
	Retries            uint64 `json:"job_retries"`
	SweepPointsResumed uint64 `json:"sweep_points_resumed"`
	// Sweep points by serving tier: exact result-store hits and gated
	// surrogate estimates were answered without simulating; simulated
	// points paid for the pipeline (and fed the oracle).
	SweepPointsFromStore     uint64 `json:"sweep_points_from_store"`
	SweepPointsFromSurrogate uint64 `json:"sweep_points_from_surrogate"`
	SweepPointsSimulated     uint64 `json:"sweep_points_simulated"`
}

// MetricsSnapshot is the GET /metrics response body. Stages breaks the
// endpoint time down by pipeline stage (profile, reduce, generate,
// simulate): a slow /v1/simulate whose time sits in "profile" is a
// cache problem, one whose time sits in "simulate" is a sizing problem.
type MetricsSnapshot struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Cache         CacheStats                 `json:"cache"`
	Pool          PoolStats                  `json:"pool"`
	Robustness    RobustnessStats            `json:"robustness"`
	Fidelity      FidelityStats              `json:"fidelity"`
	Store         *StoreStats                `json:"store,omitempty"`
	Oracle        *OracleStatus              `json:"oracle,omitempty"`
	Cluster       *ClusterMetrics            `json:"cluster,omitempty"`
	Endpoints     map[string]LatencySnapshot `json:"endpoints"`
	Stages        map[string]LatencySnapshot `json:"stages"`
}

// Snapshot assembles the full metrics view from the registry plus the
// cache and pool it reports on.
func (m *Metrics) Snapshot(cache *GraphCache, pool *Pool) MetricsSnapshot {
	s := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Endpoints:     make(map[string]LatencySnapshot),
		Stages:        make(map[string]LatencySnapshot),
	}
	if cache != nil {
		s.Cache = cache.Stats()
	}
	if pool != nil {
		s.Pool = pool.Stats()
	}
	for name, l := range m.eachEndpoint() {
		s.Endpoints[name] = l.Snapshot()
	}
	// Stage families appear once observed (pre-registration is an
	// implementation detail, not a wire-format change).
	for name, l := range m.eachStage() {
		if snap := l.Snapshot(); snap.Count > 0 {
			s.Stages[name] = snap
		}
	}
	return s
}

// eachEndpoint returns every registered endpoint family, known and
// dynamic.
func (m *Metrics) eachEndpoint() map[string]*LatencyHist {
	out := make(map[string]*LatencyHist, len(m.knownEndpoints))
	for name, l := range m.knownEndpoints {
		out[name] = l
	}
	m.mu.Lock()
	for name, l := range m.endpoints {
		out[name] = l
	}
	m.mu.Unlock()
	return out
}

// eachStage returns every registered stage family, known and dynamic.
func (m *Metrics) eachStage() map[string]*LatencyHist {
	out := make(map[string]*LatencyHist, len(m.knownStages))
	for name, l := range m.knownStages {
		out[name] = l
	}
	m.mu.Lock()
	for name, l := range m.stages {
		out[name] = l
	}
	m.mu.Unlock()
	return out
}
