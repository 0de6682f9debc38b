package service

import (
	"fmt"
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

// knownEndpoints and knownStages are the daemon's metrics families: New
// instruments exactly these endpoints, and a daemon request's tracer
// yields only these stages (sweep and fidelity are CLI-only stages).
var (
	knownEndpoints = []string{"/v1/profile", "/v1/simulate", "/v1/sweep", "/v1/workloads"}
	knownStages    = []string{obs.StageProfile, obs.StageReduce, obs.StageGenerate,
		obs.StageSimulate, obs.StageReference}
)

// Metrics is the daemon's metrics registry: per-endpoint latency
// histograms and per-pipeline-stage timing histograms (profile /
// reduce / generate / simulate, fed by the stage spans on each
// request's tracer). Both /metrics views render it, with the cache,
// pool and robustness state, from one MetricsSnapshot.
//
// The families are fixed at construction and the maps are never
// mutated afterwards, so observations and snapshots read them without
// a lock.
type Metrics struct {
	start     time.Time
	endpoints map[string]*LatencyHist
	stages    map[string]*LatencyHist
}

// NewMetrics returns a registry holding the daemon's endpoint and stage
// families.
func NewMetrics() *Metrics {
	m := &Metrics{
		start:     time.Now(),
		endpoints: make(map[string]*LatencyHist, len(knownEndpoints)),
		stages:    make(map[string]*LatencyHist, len(knownStages)),
	}
	for _, name := range knownEndpoints {
		m.endpoints[name] = NewLatencyHist()
	}
	for _, name := range knownStages {
		m.stages[name] = NewLatencyHist()
	}
	return m
}

// Endpoint returns the histogram for an instrumented endpoint. A name
// without a family is a programming error and panics, so an endpoint
// registered in New without one fails at construction.
func (m *Metrics) Endpoint(name string) *LatencyHist {
	l, ok := m.endpoints[name]
	if !ok {
		panic(fmt.Sprintf("service: no metrics family for endpoint %q", name))
	}
	return l
}

// ObserveStages folds a request's stage timings (obs.Tracer.Stages)
// into the per-stage families: one observation per stage the request
// ran, of that stage's self time, in the same log2-microsecond buckets
// as endpoint latencies.
func (m *Metrics) ObserveStages(stages []obs.StageTiming) {
	for _, st := range stages {
		if l := m.stages[st.Name]; l != nil {
			l.Observe(time.Duration(st.DurationS*float64(time.Second)), false)
		}
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

// Snapshot assembles the registry's part of the metrics view plus the
// cache and pool it reports on; the Server fills in the rest.
func (m *Metrics) Snapshot(cache *GraphCache, pool *Pool) MetricsSnapshot {
	s := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Endpoints:     make(map[string]LatencySnapshot, len(m.endpoints)),
		Stages:        make(map[string]LatencySnapshot),
	}
	if cache != nil {
		s.Cache = cache.Stats()
	}
	if pool != nil {
		s.Pool = pool.Stats()
	}
	for name, l := range m.endpoints {
		s.Endpoints[name] = l.Snapshot()
	}
	// Stage families appear once observed.
	for name, l := range m.stages {
		if snap := l.Snapshot(); snap.Count > 0 {
			s.Stages[name] = snap
		}
	}
	return s
}
