package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/fidelity"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/sfg"
)

// Options configures a Server. The zero value is usable: GOMAXPROCS
// workers, a 16-profile cache, no job timeout, no durable store.
type Options struct {
	// Workers bounds concurrent simulation/profiling jobs (<= 0 means
	// GOMAXPROCS).
	Workers int
	// CacheSize is the number of resident statistical profiles (<= 0
	// means 16).
	CacheSize int
	// JobTimeout cancels any single profile/simulate/sweep job that
	// runs longer (0 disables).
	JobTimeout time.Duration
	// MaxProfileInstructions rejects profile requests beyond this
	// stream length (<= 0 means 50M), keeping one request from pinning
	// a worker for hours.
	MaxProfileInstructions uint64
	// MaxSweepPoints bounds explicit sweep grids (<= 0 means the paper
	// grid size, 1792).
	MaxSweepPoints int
	// CacheDir, when set, persists profiles and sweep checkpoints on
	// disk so a restarted daemon serves what a previous life measured
	// (see Store and SweepJournal).
	CacheDir string
	// MaxQueueDepth sheds new work (HTTP 429 + Retry-After) once this
	// many jobs are queued (<= 0 means 4x the worker count — the point
	// where submissions would otherwise block).
	MaxQueueDepth int
	// MaxRequestBytes caps POST bodies (<= 0 means 1 MiB); beyond it
	// the request fails with 413 instead of consuming memory.
	MaxRequestBytes int64
	// Retry re-runs transiently failed profile/simulate jobs (panics,
	// injected faults) with jittered exponential backoff.
	Retry RetryPolicy
	// Faults injects deterministic failures for chaos testing; nil in
	// production.
	Faults *fault.Injector
	// ProfileShards, when > 1, profiles cache-miss requests with
	// interval-sharded parallelism (core.ProfileOptions.Shards). Sharded
	// results differ slightly from sequential ones (bounded warm-up
	// approximation), so the shard count is part of ProfileKey and
	// changing it never aliases cached sequential profiles.
	ProfileShards int
	// Logger receives the daemon's structured logs; every request-scoped
	// line carries the request's trace ID. nil discards everything
	// (tests, embedded use).
	Logger *slog.Logger
	// FlightRecorderSize bounds the ring of recent request events served
	// by GET /v1/debug/requests and dumped on shed storms and worker
	// panics (<= 0 means 256).
	FlightRecorderSize int
	// ManifestDir, when set, writes one JSON run manifest per successful
	// profile/simulate/sweep request into the directory, named
	// <endpoint>-<trace-id>.json — per-request provenance as a durable,
	// queryable artifact.
	ManifestDir string
	// SurrogateMaxCI enables the oracle's learned fast path: sweep
	// points whose surrogate prediction carries relative uncertainty at
	// or below this gate are served as flagged estimates instead of
	// being simulated. <= 0 (the default) disables surrogate serving
	// entirely — only exact result-store hits are ever served, and those
	// are ground truth. The result store itself rides on CacheDir.
	SurrogateMaxCI float64
	// TraceStoreSize bounds how many recent traces' span slices the
	// daemon retains for GET /v1/debug/trace/{id} (<= 0 means 128).
	TraceStoreSize int
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 16
	}
	if o.MaxProfileInstructions == 0 {
		o.MaxProfileInstructions = 50_000_000
	}
	if o.MaxSweepPoints <= 0 {
		o.MaxSweepPoints = 1792
	}
	if o.MaxRequestBytes <= 0 {
		o.MaxRequestBytes = 1 << 20
	}
	if o.FlightRecorderSize <= 0 {
		o.FlightRecorderSize = 256
	}
	if o.TraceStoreSize <= 0 {
		o.TraceStoreSize = 128
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Server is the statsimd service: a worker pool, a profile cache, an
// optional durable store, and the HTTP handlers that expose the paper's
// profile/simulate/sweep pipeline as long-lived endpoints.
type Server struct {
	opts     Options
	pool     *Pool
	cache    *GraphCache
	store    *Store  // nil without CacheDir
	oracle   *oracle // two-tier result oracle; nil-safe when disabled
	faults   *fault.Injector
	metrics  *Metrics
	mux      *http.ServeMux
	log      *slog.Logger
	flight   *obs.FlightRecorder
	progress *progressHub
	traces   *obs.TraceStore
	costs    *costCounters
	build    BuildInfo
	// node is this daemon's name on span and ledger entries: the
	// cluster-advertised URL once SetCluster runs, "local" before.
	node string
	// cluster connects this node to its peers (nil = single-node); set
	// by SetCluster before serving starts. clusterServed counts the
	// answering side of peer RPCs regardless of cluster being set (a
	// pure replica node serves fetches without coordinating anything).
	cluster       Cluster
	clusterServed clusterServedStats

	draining     atomic.Bool
	shed         atomic.Uint64
	retries      atomic.Uint64
	sweepResumed atomic.Uint64
	// Per-source sweep point accounting: how many points each serving
	// tier answered, so the sweep Prometheus families distinguish cached
	// and predicted points from simulated work.
	sweepFromStore     atomic.Uint64
	sweepFromSurrogate atomic.Uint64
	sweepSimulated     atomic.Uint64
	sweepLocks         sweepLockTable
	fidelity           fidelityCounters

	// Shed-storm detection: a burst of 429s inside stormWindow triggers
	// one flight-recorder dump per stormCooldown, so the black box lands
	// in the log while the incident is happening, not after.
	stormMu    sync.Mutex
	stormStart time.Time
	stormSheds int
	lastDump   time.Time
}

// Shed-storm thresholds: stormThreshold sheds inside stormWindow count
// as a storm; dumps are spaced at least stormCooldown apart.
const (
	stormThreshold = 8
	stormWindow    = 10 * time.Second
	stormCooldown  = 30 * time.Second
)

// New assembles a Server (and starts its worker pool). The only
// construction failure is an unusable CacheDir.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		pool:     NewPoolTimeout(opts.Workers, opts.JobTimeout),
		cache:    NewGraphCache(opts.CacheSize),
		faults:   opts.Faults,
		metrics:  NewMetrics(),
		mux:      http.NewServeMux(),
		log:      opts.Logger,
		flight:   obs.NewFlightRecorder(opts.FlightRecorderSize),
		progress: newProgressHub(64),
		traces:   obs.NewTraceStore(opts.TraceStoreSize),
		costs:    newCostCounters(),
		build:    readBuildInfo(),
		node:     "local",

		sweepLocks: sweepLockTable{locks: make(map[string]*sweepLock)},
	}
	if s.opts.MaxQueueDepth <= 0 {
		s.opts.MaxQueueDepth = 4 * s.pool.Stats().Workers
	}
	if opts.CacheDir != "" {
		store, err := NewStore(opts.CacheDir, opts.Faults)
		if err != nil {
			s.pool.Drain(context.Background())
			return nil, err
		}
		s.store = store
	}
	// The oracle's durable tier lives under the cache dir; the surrogate
	// tier is gated by SurrogateMaxCI. With neither, the oracle stays
	// nil-disabled and every call short-circuits.
	oracleDir := ""
	if opts.CacheDir != "" {
		oracleDir = filepath.Join(opts.CacheDir, oracleSubdir)
	}
	if oracleDir != "" || opts.SurrogateMaxCI > 0 {
		o, err := newOracle(oracleDir, opts.SurrogateMaxCI)
		if err != nil {
			s.pool.Drain(context.Background())
			return nil, err
		}
		s.oracle = o
	}
	if opts.ManifestDir != "" {
		if err := os.MkdirAll(opts.ManifestDir, 0o755); err != nil {
			s.pool.Drain(context.Background())
			return nil, fmt.Errorf("service: creating manifest dir: %w", err)
		}
	}
	s.mux.HandleFunc("POST /v1/profile", s.instrument("/v1/profile", s.handleProfile))
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("/v1/simulate", s.handleSimulate))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	s.mux.HandleFunc("GET /v1/workloads", s.instrument("/v1/workloads", s.handleWorkloads))
	s.mux.HandleFunc("GET /v1/oracle/status", s.handleOracleStatus)
	s.mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /v1/debug/trace/{id}", s.handleDebugTrace)
	s.mux.HandleFunc("GET /v1/sweep/progress", s.handleSweepProgress)
	s.mux.HandleFunc("POST /v1/cluster/fetch", s.handleClusterFetch)
	s.mux.HandleFunc("POST /v1/cluster/offer", s.handleClusterOffer)
	s.mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	s.mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the worker pool (shared with embedding callers such as
// the CLI sweep).
func (s *Server) Pool() *Pool { return s.pool }

// Store exposes the durable profile store (nil without CacheDir).
func (s *Server) Store() *Store { return s.store }

// Close marks the server draining (new work is refused with 503, and
// /healthz reports not ready), gracefully drains the worker pool, and
// releases the oracle's result log.
func (s *Server) Close(ctx context.Context) error {
	s.draining.Store(true)
	err := s.pool.Drain(ctx)
	if cerr := s.oracle.close(); err == nil {
		err = cerr
	}
	return err
}

// admit is the admission-control gate every work-submitting handler
// passes: a draining server refuses, and a queue past MaxQueueDepth
// sheds with 429 + Retry-After, degrading gracefully instead of letting
// latency collapse for everyone.
func (s *Server) admit() error {
	if s.draining.Load() {
		return &apiError{code: http.StatusServiceUnavailable,
			err: errors.New("server is draining"), retryAfter: 5 * time.Second}
	}
	st := s.pool.Stats()
	if st.QueueDepth >= s.opts.MaxQueueDepth {
		s.shed.Add(1)
		// Scale the hint with how deep the backlog is relative to the
		// workers that must clear it.
		after := time.Duration(1+st.QueueDepth/max(st.Workers, 1)) * time.Second
		return &apiError{code: http.StatusTooManyRequests,
			err:        fmt.Errorf("queue depth %d at limit %d, shedding load", st.QueueDepth, s.opts.MaxQueueDepth),
			retryAfter: after}
	}
	return nil
}

// httpError is the uniform error body.
type httpError struct {
	Error string `json:"error"`
}

// apiError carries a status code (and optionally a Retry-After hint)
// out of a handler.
type apiError struct {
	code       int
	err        error
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.err.Error() }

func badRequest(format string, args ...any) *apiError {
	return &apiError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// writeJSONError renders err as the uniform JSON error body and returns
// the status it chose: an apiError's own code, with its Retry-After
// hint; 503 with a Retry-After for a closed pool; 500 otherwise.
func writeJSONError(w http.ResponseWriter, err error) int {
	code := http.StatusInternalServerError
	var ae *apiError
	if errors.As(err, &ae) {
		code = ae.code
		if ae.retryAfter > 0 {
			secs := int64((ae.retryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
	} else if errors.Is(err, ErrPoolClosed) {
		w.Header().Set("Retry-After", "5")
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(httpError{Error: err.Error()})
	return code
}

// retryRun applies the server's retry policy with per-request
// attribution: retries land in the server-wide counter and in the
// request's outcome record (flight recorder, log line).
func (s *Server) retryRun(ctx context.Context, fn func() error) error {
	var local atomic.Uint64
	err := s.opts.Retry.Run(ctx, &local, fn)
	if n := local.Load(); n > 0 {
		s.retries.Add(n)
		obs.TracerFromContext(ctx).Note(func(ev *obs.RequestEvent) { ev.Retries += int(n) })
	}
	return err
}

// instrument wraps a JSON handler with per-request telemetry and
// uniform error rendering. It mints the request's trace ID (honouring a
// well-formed inbound X-Request-Id, so a client-chosen ID is followable
// across systems), opens the request's tracer — the one per-request
// record, carried through the context to every layer below — echoes the
// ID in the X-Request-Id response header, observes latency and
// pipeline-stage timings, emits one structured log line, and records
// the request into the flight recorder. Every failure — malformed JSON,
// oversized body, shed load, job fault — renders as a structured JSON
// error with the right status, never a bare 500 with a text body.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request) (any, error)) http.HandlerFunc {
	hist := s.metrics.Endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		traceID := obs.SanitizeTraceID(r.Header.Get("X-Request-Id"))
		if traceID == "" {
			traceID = obs.NewTraceID()
		}
		w.Header().Set("X-Request-Id", traceID)
		tracer := obs.NewTracer(traceID, s.node)
		ctx, root := tracer.StartSpan(obs.WithTracer(r.Context(), tracer), "http "+name)
		r = r.WithContext(ctx)

		resp, err := h(w, r)
		elapsed := time.Since(start)
		hist.Observe(elapsed, err != nil)
		stages := tracer.Stages()
		s.metrics.ObserveStages(stages)

		code := http.StatusOK
		if err != nil {
			code = writeJSONError(w, err)
			root.Annotate("error", err.Error())
		} else {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp)
		}
		root.End()
		spans := tracer.Spans()
		s.traces.Add(traceID, spans)
		s.finishRequest(name, tracer, code, elapsed, len(spans), stages, err)
	}
}

// finishRequest is the telemetry tail of every instrumented request:
// the flight-recorder event (the outcome the tracer collected, stamped
// with the request's identity, status and timings), the structured log
// line, and the decision whether this request's outcome (a shed burst,
// a worker panic) warrants dumping the flight recorder into the log.
func (s *Server) finishRequest(name string, tracer *obs.Tracer, code int, elapsed time.Duration, spans int, stages []obs.StageTiming, err error) {
	traceID := tracer.TraceID()
	ev := tracer.Event()
	ev.Time = time.Now()
	ev.TraceID = traceID
	ev.Endpoint = name
	ev.Status = code
	ev.DurationMS = float64(elapsed) / float64(time.Millisecond)
	ev.Shed = code == http.StatusTooManyRequests
	ev.Spans = spans
	if len(stages) > 0 {
		ev.StageMS = make(map[string]float64, len(stages))
		for _, st := range stages {
			ev.StageMS[st.Name] = st.DurationS * 1e3
		}
	}
	if err != nil {
		ev.Error = err.Error()
		ev.Panicked = errors.Is(err, ErrJobPanic)
	}
	s.flight.Record(ev)

	args := []any{"trace_id", traceID, "endpoint", name, "status", code,
		"dur_ms", ev.DurationMS, "cache_hit", ev.CacheHit}
	if ev.Retries > 0 {
		args = append(args, "retries", ev.Retries)
	}
	if ev.Resumed > 0 {
		args = append(args, "resumed", ev.Resumed)
	}
	if ev.Peer != "" {
		args = append(args, "peer", ev.Peer)
	}
	if ev.Failovers > 0 {
		args = append(args, "failovers", ev.Failovers)
	}
	if ev.StoreHits > 0 || ev.SurrogateHits > 0 {
		args = append(args, "store_hits", ev.StoreHits, "surrogate_hits", ev.SurrogateHits)
	}
	if ev.Escalations > 0 || ev.DetailedInsts > 0 {
		args = append(args, "escalations", ev.Escalations, "detailed_insts", ev.DetailedInsts)
	}
	if err != nil {
		args = append(args, "err", err.Error())
		s.log.Warn("request", args...)
	} else {
		s.log.Info("request", args...)
	}

	switch {
	case ev.Panicked:
		s.dumpFlight("worker panic", traceID)
	case ev.Shed:
		s.noteShed(traceID)
	}
}

// noteShed counts 429s toward storm detection: stormThreshold sheds
// inside stormWindow dump the flight recorder, at most once per
// stormCooldown — the black box lands in the log while the overload is
// live, not after the postmortem starts.
func (s *Server) noteShed(traceID string) {
	now := time.Now()
	s.stormMu.Lock()
	if now.Sub(s.stormStart) > stormWindow {
		s.stormStart, s.stormSheds = now, 0
	}
	s.stormSheds++
	storm := s.stormSheds >= stormThreshold && now.Sub(s.lastDump) >= stormCooldown
	if storm {
		s.lastDump = now
	}
	s.stormMu.Unlock()
	if storm {
		s.dumpFlight("shed storm", traceID)
	}
}

// dumpFlight writes the flight recorder's recent history into the log
// as one structured record.
func (s *Server) dumpFlight(reason, traceID string) {
	data, err := json.Marshal(s.flight.Recent(32))
	if err != nil {
		return
	}
	s.log.Error("flight recorder dump", "reason", reason, "trace_id", traceID,
		"events", json.RawMessage(data))
}

// decodeJSON reads one JSON value from the body under a hard size cap.
// Garbage input, unknown fields and trailing data come back as 400s,
// an oversized body as 413 — structured errors, not 500s.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &apiError{code: http.StatusRequestEntityTooLarge,
				err: fmt.Errorf("request body exceeds %d bytes", mbe.Limit)}
		}
		return badRequest("decoding request: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// ProfileSpec names a profile in requests. K is taken as given (0 is
// the zero-order SFG); a zero N takes 1M and a zero Seed takes 1.
type ProfileSpec struct {
	Workload  string `json:"workload"`
	K         int    `json:"k"`
	N         uint64 `json:"n"`
	Seed      uint64 `json:"seed"`
	Immediate bool   `json:"immediate,omitempty"`
}

func (p ProfileSpec) key(opts Options) (ProfileKey, error) {
	if p.Workload == "" {
		return ProfileKey{}, badRequest("workload is required")
	}
	if p.K < 0 || p.K > sfg.MaxK {
		return ProfileKey{}, badRequest("k=%d outside [0,%d]", p.K, sfg.MaxK)
	}
	if p.N == 0 {
		p.N = 1_000_000
	}
	if p.N > opts.MaxProfileInstructions {
		return ProfileKey{}, badRequest("n=%d exceeds limit %d", p.N, opts.MaxProfileInstructions)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	shards := opts.ProfileShards
	if shards <= 1 {
		shards = 0
	}
	return ProfileKey{Workload: p.Workload, K: p.K, N: p.N, Seed: p.Seed, Immediate: p.Immediate, Shards: shards}, nil
}

// resolveProfile returns the (frozen) graph for the spec. On an
// in-memory miss it consults the durable store first (a corrupt file is
// quarantined inside Load and treated as a miss), then profiles through
// the worker pool — retrying transient failures per the server's
// policy — and persists the result for the next daemon life. The bool
// reports whether the profile was served without this request paying
// for profiling. The request's tracer (from the context) records a
// "profile" stage span for whatever profiling work this request
// actually paid for (cache and store hits record nothing), and each
// resolution step logs at Debug keyed by the request's trace ID.
func (s *Server) resolveProfile(ctx context.Context, spec ProfileSpec) (*sfg.Graph, ProfileKey, bool, error) {
	key, err := spec.key(s.opts)
	if err != nil {
		return nil, ProfileKey{}, false, err
	}
	tracer := obs.TracerFromContext(ctx)
	lg := s.log.With("trace_id", tracer.TraceID(),
		"workload", key.Workload, "k", key.K, "n", key.N)
	g, cached, err := s.cache.GetOrProfile(key, func() (*sfg.Graph, error) {
		if s.store != nil {
			if g, err := s.store.Load(key); err == nil {
				lg.Debug("profile served from durable store")
				return g, nil
			}
			// Missing or quarantined-corrupt: fall through and
			// re-profile; a fresh Save below overwrites.
		}
		if s.cluster != nil {
			// Remote tier: the key's replica peers may have paid for
			// this profile already — a graph profiled once anywhere is
			// bit-identical to what we would compute, so adopting it is
			// as sound as a local cache hit.
			fctx, span := tracer.StartSpan(ctx, "cluster.fetch")
			if g, peer, err := s.cluster.FetchGraph(fctx, key); err == nil {
				span.Annotate("peer", peer)
				span.End()
				lg.Debug("profile fetched from peer", "peer", peer)
				tracer.Note(func(ev *obs.RequestEvent) { ev.Peer = peer })
				if s.store != nil {
					g.Freeze() // see the fresh-profile Save below
					_ = s.store.Save(key, g)
				}
				return g, nil
			} else if !errors.Is(err, ErrNoRemoteGraph) {
				span.Annotate("error", err.Error())
				span.End()
				lg.Debug("peer fetch failed, profiling locally", "err", err.Error())
			} else {
				span.Annotate("outcome", "miss")
				span.End()
			}
		}
		lg.Debug("profile cache miss, profiling")
		var g *sfg.Graph
		err := s.retryRun(ctx, func() error {
			return s.pool.Do(ctx, func(ctx context.Context) error {
				if err := s.faults.Fire(SiteProfileJob); err != nil {
					return err
				}
				w, err := core.LoadWorkload(key.Workload)
				if err != nil {
					return badRequest("%v", err)
				}
				_, sp := obs.TracerFromContext(ctx).StartSpan(ctx, obs.StageProfile)
				g, err = core.Profile(cpu.DefaultConfig(), w.Stream(key.Seed, 0, key.N),
					core.ProfileOptions{K: key.K, ImmediateUpdate: key.Immediate, Shards: key.Shards})
				if err != nil {
					sp.End()
					return err
				}
				sp.EndInstructions(g.TotalInstructions)
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		// Freeze before the cache would: Save then encodes each
		// dependency histogram from its few sampling entries instead of
		// scanning its dense counts, the cache's own Freeze is a no-op,
		// and the cluster offer's asynchronous send reads an immutable
		// graph.
		g.Freeze()
		if s.store != nil {
			// Failures are counted in store stats; the in-memory cache
			// still serves this life.
			_ = s.store.Save(key, g)
		}
		if s.cluster != nil {
			// Freshly paid-for profile: replicate to the key's owners so
			// no node in the cluster ever profiles it again. The
			// replication send itself is asynchronous; the span marks
			// that this request initiated it.
			octx, span := tracer.StartSpan(ctx, "cluster.offer")
			s.cluster.OfferGraph(octx, key, g)
			span.End()
		}
		return g, nil
	})
	if err == nil && cached {
		lg.Debug("profile served from cache")
		tracer.Note(func(ev *obs.RequestEvent) { ev.CacheHit = true })
	}
	return g, key, cached, err
}

// ConfigSpec overrides the Table 2 baseline configuration; zero fields
// keep the baseline value.
type ConfigSpec struct {
	RUU           int  `json:"ruu,omitempty"`
	LSQ           int  `json:"lsq,omitempty"`
	Decode        int  `json:"decode,omitempty"`
	Issue         int  `json:"issue,omitempty"`
	Commit        int  `json:"commit,omitempty"`
	IFQ           int  `json:"ifq,omitempty"`
	PerfectCaches bool `json:"perfect_caches,omitempty"`
	PerfectBpred  bool `json:"perfect_bpred,omitempty"`
}

func (c ConfigSpec) apply(base cpu.Config) cpu.Config {
	if c.RUU > 0 {
		base.RUUSize = c.RUU
	}
	if c.LSQ > 0 {
		base.LSQSize = c.LSQ
	}
	if c.Decode > 0 {
		base.DecodeWidth = c.Decode
	}
	if c.Issue > 0 {
		base.IssueWidth = c.Issue
	}
	if c.Commit > 0 {
		base.CommitWidth = c.Commit
	}
	if c.IFQ > 0 {
		base.IFQSize = c.IFQ
	}
	base.PerfectCaches = base.PerfectCaches || c.PerfectCaches
	base.PerfectBpred = base.PerfectBpred || c.PerfectBpred
	return base
}

// ProfileRequest is the POST /v1/profile body.
type ProfileRequest struct {
	ProfileSpec
}

// ProfileResponse describes the resident profile.
type ProfileResponse struct {
	Key               ProfileKey `json:"key"`
	Nodes             int        `json:"nodes"`
	Edges             int        `json:"edges"`
	TotalInstructions uint64     `json:"total_instructions"`
	Cached            bool       `json:"cached"`
	ElapsedMS         float64    `json:"elapsed_ms"`
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) (any, error) {
	var req ProfileRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return nil, err
	}
	if err := s.admit(); err != nil {
		return nil, err
	}
	start := time.Now()
	g, key, cached, err := s.resolveProfile(r.Context(), req.ProfileSpec)
	if err != nil {
		return nil, err
	}
	s.writeManifest(r.Context(), "/v1/profile", func(m *obs.Manifest) {
		m.ConfigFingerprint = obs.Fingerprint(cpu.DefaultConfig())
		m.Workload = key.Workload
		m.K = key.K
		m.Seed = key.Seed
		m.StreamLength = key.N
	})
	return ProfileResponse{
		Key:               key,
		Nodes:             g.NumNodes(),
		Edges:             g.NumEdges(),
		TotalInstructions: g.TotalInstructions,
		Cached:            cached,
		ElapsedMS:         float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// SimulateRequest is the POST /v1/simulate body: statistical simulation
// of one configuration from the named profile (profiled on demand).
type SimulateRequest struct {
	Profile ProfileSpec `json:"profile"`
	Config  ConfigSpec  `json:"config"`
	// Target is the synthetic trace length aimed for (default 100k).
	Target uint64 `json:"target"`
	// SimSeed seeds synthetic trace generation (default 1); on fidelity
	// runs it is the engine's base seed.
	SimSeed uint64 `json:"sim_seed"`
	// Fidelity switches the request to the adaptive fidelity engine:
	// the response carries confidence intervals and an escalation
	// account instead of a single statistical estimate.
	Fidelity *FidelitySpec `json:"fidelity,omitempty"`
}

// SimMetrics is the wire form of one simulation's outcome.
type SimMetrics struct {
	IPC              float64 `json:"ipc"`
	EPC              float64 `json:"epc"`
	EDP              float64 `json:"edp"`
	Cycles           uint64  `json:"cycles"`
	Instructions     uint64  `json:"instructions"`
	MispredictsPerKI float64 `json:"mispredicts_per_ki"`
}

func wireMetrics(m core.Metrics) SimMetrics {
	return SimMetrics{
		IPC:              m.IPC(),
		EPC:              m.EPC(),
		EDP:              m.EDP(),
		Cycles:           m.Cycles,
		Instructions:     m.Instructions,
		MispredictsPerKI: m.Branch.MispredictsPerKI(m.Instructions),
	}
}

// SimulateResponse is the POST /v1/simulate reply. On fidelity runs,
// Metrics carries the interval's centre estimates (Reduction is 0 — no
// single synthetic trace was used) and Fidelity carries the full
// confidence-interval and escalation report.
type SimulateResponse struct {
	Key           ProfileKey       `json:"key"`
	ProfileCached bool             `json:"profile_cached"`
	Reduction     uint64           `json:"reduction"`
	Metrics       SimMetrics       `json:"metrics"`
	Fidelity      *fidelity.Result `json:"fidelity,omitempty"`
	// Served marks a response the oracle answered without simulating:
	// "store" is an exact durable-store hit, byte-identical to
	// re-simulating. Empty on freshly simulated responses.
	Served    string  `json:"served,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) (any, error) {
	var req SimulateRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return nil, err
	}
	if err := s.admit(); err != nil {
		return nil, err
	}
	if req.SimSeed == 0 {
		req.SimSeed = 1
	}
	if req.Fidelity != nil {
		return s.runFidelitySimulate(r, req)
	}
	if req.Target == 0 {
		req.Target = 100_000
	}
	start := time.Now()
	g, key, cached, err := s.resolveProfile(r.Context(), req.Profile)
	if err != nil {
		return nil, err
	}
	cfg := req.Config.apply(cpu.DefaultConfig())
	red := core.ReductionFor(g, req.Target)
	okey := oracleKey(key, cfg, red, req.SimSeed)
	served := ""
	var m core.Metrics
	if hit, ok := s.oracle.lookup(okey); ok {
		// Exact fingerprint hit: a previous simulation of this identical
		// (config, profile, reduction, seed) tuple already computed these
		// metrics; re-serving them is byte-identical to re-simulating.
		m, served = hit, ServedFromStore
		obs.TracerFromContext(r.Context()).Note(func(ev *obs.RequestEvent) { ev.StoreHits++ })
	} else {
		err = s.retryRun(r.Context(), func() error {
			return s.pool.Do(r.Context(), func(ctx context.Context) error {
				if err := s.faults.Fire(SiteSimulateJob); err != nil {
					return err
				}
				var err error
				m, err = core.StatSimTraced(ctx, cfg, g, red, req.SimSeed)
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		s.oracle.learn([]resultstore.Key{okey}, []core.Metrics{m})
	}
	s.writeManifest(r.Context(), "/v1/simulate", func(mf *obs.Manifest) {
		mf.ConfigFingerprint = obs.Fingerprint(cfg)
		mf.Workload = key.Workload
		mf.K = key.K
		mf.Seed = key.Seed
		mf.SimSeed = req.SimSeed
		mf.Reduction = red
		mf.StreamLength = key.N
		mf.Metrics = core.ManifestMetrics(m)
	})
	return SimulateResponse{
		Key:           key,
		ProfileCached: cached,
		Reduction:     red,
		Metrics:       wireMetrics(m),
		Served:        served,
		ElapsedMS:     float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// SweepRequest is the POST /v1/sweep body: statistical simulation of a
// whole design grid from one profile.
type SweepRequest struct {
	Profile ProfileSpec `json:"profile"`
	Config  ConfigSpec  `json:"config"`
	// Grid names a built-in design space ("quick" or "paper"); Points
	// supplies an explicit one instead.
	Grid    string       `json:"grid,omitempty"`
	Points  []SweepPoint `json:"points,omitempty"`
	Target  uint64       `json:"target"`
	SimSeed uint64       `json:"sim_seed"`
	// Fidelity switches every point to the adaptive fidelity engine
	// (shared stratification, per-point confidence intervals); fidelity
	// sweeps are capped at maxFidelitySweepPoints points.
	Fidelity *FidelitySpec `json:"fidelity,omitempty"`
	// RawMetrics additionally returns each point's full core.Metrics in
	// SweepRow.Raw. The cluster's coordinator sets it on sub-requests:
	// raw metrics JSON-round-trip exactly, which is what makes a point
	// computed on a peer byte-identical in the merged result and the
	// journal.
	RawMetrics bool `json:"raw_metrics,omitempty"`
	// Cost additionally returns the per-point cost ledger in the
	// response tail: one entry per grid point recording which tier
	// served it, on which node, in which lockstep cohort, and its wall
	// time. The coordinator sets it on sub-requests so remote points
	// carry the executing peer's measurements.
	Cost bool `json:"cost,omitempty"`
}

// SweepRow is one design point's outcome; Fidelity is present on
// fidelity-mode sweeps, Raw when the request asked for raw metrics.
// Served marks oracle-answered points ("store" is ground truth,
// "surrogate" a gated prediction); surrogate rows always carry
// Estimated=true and their Uncertainty, so an estimate can never be
// mistaken for a measurement.
type SweepRow struct {
	Point       SweepPoint       `json:"point"`
	Metrics     SimMetrics       `json:"metrics"`
	Raw         *core.Metrics    `json:"raw,omitempty"`
	Fidelity    *fidelity.Result `json:"fidelity,omitempty"`
	Served      string           `json:"served,omitempty"`
	Estimated   bool             `json:"estimated,omitempty"`
	Uncertainty float64          `json:"uncertainty,omitempty"`
}

// SweepResponse is the POST /v1/sweep reply; Results are in grid order
// independent of completion order, and Best indexes the minimum-EDP
// row. Resumed counts points recovered from a checkpoint journal
// (a previous life of the daemon, or an identical earlier sweep)
// rather than simulated for this request.
type SweepResponse struct {
	Key           ProfileKey `json:"key"`
	ProfileCached bool       `json:"profile_cached"`
	Points        int        `json:"points"`
	Resumed       int        `json:"resumed,omitempty"`
	// FromStore and FromSurrogate count points the oracle served
	// (exact durable-store hits and gated predictions) instead of
	// simulating them for this request.
	FromStore     int        `json:"from_store,omitempty"`
	FromSurrogate int        `json:"from_surrogate,omitempty"`
	Best          int        `json:"best"`
	Results       []SweepRow `json:"results"`
	// Cost is the per-point cost ledger (present when the request set
	// cost=true): exactly one entry per grid point, in grid order.
	Cost []PointCost `json:"cost,omitempty"`
	// TraceSpans piggybacks this node's span slice on fanout sub-sweep
	// responses so the coordinator assembles one tree covering every
	// node that worked on the sweep. Never set on direct requests.
	TraceSpans []obs.TraceSpan `json:"trace_spans,omitempty"`
	ElapsedMS  float64         `json:"elapsed_ms"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) (any, error) {
	var req SweepRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return nil, err
	}
	if err := s.admit(); err != nil {
		return nil, err
	}
	points := req.Points
	if req.Grid != "" {
		if len(points) > 0 {
			return nil, badRequest("grid and points are mutually exclusive")
		}
		var err error
		if points, err = GridByName(req.Grid); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	if len(points) == 0 {
		return nil, badRequest("a grid name or explicit points are required")
	}
	if len(points) > s.opts.MaxSweepPoints {
		return nil, badRequest("%d points exceed limit %d", len(points), s.opts.MaxSweepPoints)
	}
	for _, p := range points {
		if err := checkPointRange(p); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	if req.SimSeed == 0 {
		req.SimSeed = 1
	}
	if req.Fidelity != nil {
		return s.runFidelitySweep(r, req, points)
	}
	if req.Target == 0 {
		req.Target = 100_000
	}
	start := time.Now()
	ctx := r.Context()
	fanout := r.Header.Get(ClusterFanoutHeader) != ""
	var sub obs.ActiveSpan
	if fanout {
		// A coordinator dispatched this sub-sweep: parent our spans under
		// its dispatch span (carried in the header next to X-Request-Id)
		// so the merged tree reads as one request, and open the span that
		// roots everything this node does for the chunk.
		if parent := obs.SanitizeTraceID(r.Header.Get(ClusterParentSpanHeader)); parent != "" {
			ctx = obs.WithSpanID(ctx, parent)
		}
		ctx, sub = obs.TracerFromContext(ctx).StartSpan(ctx, "sweep.sub")
		sub.Annotate("points", strconv.Itoa(len(points)))
	}
	g, key, cached, err := s.resolveProfile(ctx, req.Profile)
	if err != nil {
		return nil, err
	}
	base := req.Config.apply(cpu.DefaultConfig())
	red := core.ReductionFor(g, req.Target)
	ledger := newCostLedger(s.node, len(points))
	results, resumed, err := s.sweep(ctx, base, g, points, red, req.SimSeed, SweepOptions{
		oracle:  s.oracle,
		pkey:    key,
		cluster: s.cluster,
		spec:    req.Profile,
		cfgSpec: req.Config,
		fanout:  fanout,
		ledger:  ledger,
		log:     s.log,
	})
	sub.End()
	if err != nil {
		return nil, err
	}
	entries := ledger.snapshot()
	s.costs.add(entries)
	s.writeManifest(ctx, "/v1/sweep", func(m *obs.Manifest) {
		m.ConfigFingerprint = obs.Fingerprint(base)
		m.Workload = key.Workload
		m.K = key.K
		m.Seed = key.Seed
		m.SimSeed = req.SimSeed
		m.Reduction = red
		m.StreamLength = key.N
		m.Cost = manifestCost(entries)
	})
	resp := SweepResponse{
		Key:           key,
		ProfileCached: cached,
		Points:        len(results),
		Resumed:       resumed,
		Results:       make([]SweepRow, len(results)),
		ElapsedMS:     float64(time.Since(start)) / float64(time.Millisecond),
	}
	for i, res := range results {
		row := SweepRow{Point: res.Point, Served: res.Served}
		switch {
		case res.Estimate != nil:
			// A surrogate-served point: rates predicted, not measured.
			// The flag and uncertainty travel with the row so no consumer
			// can mistake it for ground truth, and estimates never carry
			// raw metrics.
			row.Metrics = estimateWire(*res.Estimate)
			row.Estimated = true
			row.Uncertainty = res.Estimate.Uncertainty
			resp.FromSurrogate++
		default:
			row.Metrics = wireMetrics(res.Metrics)
			if req.RawMetrics {
				m := res.Metrics
				row.Raw = &m
			}
			if res.Served == ServedFromStore {
				resp.FromStore++
			}
		}
		resp.Results[i] = row
		if resp.Results[i].Metrics.EDP < resp.Results[resp.Best].Metrics.EDP {
			resp.Best = i
		}
	}
	if req.Cost {
		resp.Cost = entries
	}
	if fanout {
		// Ship this node's span slice back piggybacked on the sub-sweep
		// response; the coordinator imports it into the root tracer. The
		// enclosing "http /v1/sweep" root span is still open here and so
		// excluded — the shipped spans all chain under sweep.sub, which
		// parents to the coordinator's dispatch span.
		resp.TraceSpans = obs.TracerFromContext(ctx).Spans()
	}
	return resp, nil
}

// sweep runs one /v1/sweep through the engine (Sweep) with the tiers in
// opts, and adds only what the daemon alone owns. With a durable store
// the sweep is checkpointed in a journal keyed by its fingerprint, so
// the same request after a restart resumes instead of recomputing, and
// identical concurrent requests serialise on that fingerprint's lock
// (the second finds every point checkpointed); a journal that cannot be
// opened degrades to an un-checkpointed sweep rather than failing the
// request. Progress goes to the hub feed keyed by the request's trace
// ID — "start" once the resume count is known, one "point" event per
// served point, batch by batch after each batch's durable commit, and a
// terminal "done" or "error": the stream GET /v1/sweep/progress serves.
// The same hook feeds the sweep and request counters.
func (s *Server) sweep(ctx context.Context, base cpu.Config, g *sfg.Graph, points []SweepPoint, red, simSeed uint64, opts SweepOptions) ([]SweepResult, int, error) {
	// Fanout sub-sweeps share the root request's trace ID; publishing
	// into the hub would collide with the coordinator's own feed for the
	// same ID (the first terminal event would silence the rest), so they
	// run against a nil feed, which discards everything.
	tracer := obs.TracerFromContext(ctx)
	var feed *progressFeed
	if !opts.fanout {
		feed = s.progress.feed(tracer.TraceID())
	}
	opts.Pool, opts.Faults = s.pool, s.faults
	opts.Progress = func(indices []int, results []SweepResult) {
		var store, surrogate int
		for _, i := range indices {
			switch {
			case results[i].Estimate != nil:
				surrogate++
			case results[i].Served == ServedFromStore:
				store++
			}
		}
		s.sweepFromStore.Add(uint64(store))
		s.sweepFromSurrogate.Add(uint64(surrogate))
		s.sweepSimulated.Add(uint64(len(indices) - store - surrogate))
		tracer.Note(func(ev *obs.RequestEvent) {
			ev.StoreHits += store
			ev.SurrogateHits += surrogate
		})
		feed.publishPoints(indices, results)
	}
	resumedAtOpen := 0
	if s.store != nil {
		id := SweepFingerprint(g, base, points, red, simSeed)
		defer s.sweepLocks.lock(id)()
		if j, err := OpenSweepJournal(s.store.JournalPath(id), id, len(points), s.faults); err == nil {
			defer j.Close()
			s.log.Debug("sweep checkpoint journal opened", "trace_id", tracer.TraceID(),
				"fingerprint", id, "points", len(points), "resumed", j.Resumed(), "dropped", j.Dropped())
			opts.Journal, resumedAtOpen = j, j.Resumed()
		}
	}
	feed.begin(len(points), resumedAtOpen)
	results, resumed, err := Sweep(ctx, base, g, points, red, simSeed, opts)
	s.sweepResumed.Add(uint64(resumed))
	if resumed > 0 {
		tracer.Note(func(ev *obs.RequestEvent) { ev.Resumed = resumed })
	}
	feed.finish(err)
	return results, resumed, err
}

// sweepLockTable serialises sweeps with one fingerprint (they share a
// journal file) and forgets a fingerprint once its last holder or
// waiter releases it, so the table holds only sweeps in flight.
type sweepLockTable struct {
	mu    sync.Mutex
	locks map[string]*sweepLock
}

type sweepLock struct {
	sync.Mutex
	refs int // holders plus waiters
}

// lock blocks until the caller holds id's lock and returns its release.
func (t *sweepLockTable) lock(id string) (unlock func()) {
	t.mu.Lock()
	l := t.locks[id]
	if l == nil {
		l = &sweepLock{}
		t.locks[id] = l
	}
	l.refs++
	t.mu.Unlock()
	l.Lock()
	return func() {
		l.Unlock()
		t.mu.Lock()
		if l.refs--; l.refs == 0 {
			delete(t.locks, id)
		}
		t.mu.Unlock()
	}
}

// writeManifest persists a per-request run manifest when ManifestDir is
// configured: <endpoint>-<trace-id>.json, carrying the same trace ID as
// the response header, the log lines and the flight recorder, so one
// identifier connects the durable artifact to every other telemetry
// surface. Failures are logged, never surfaced — a full disk must not
// fail a simulation that already succeeded.
func (s *Server) writeManifest(ctx context.Context, endpoint string, fill func(m *obs.Manifest)) {
	if s.opts.ManifestDir == "" {
		return
	}
	tracer := obs.TracerFromContext(ctx)
	traceID := tracer.TraceID()
	m := obs.NewManifest("statsimd " + endpoint)
	m.NumWorkers = s.pool.Stats().Workers
	m.FillStages(tracer)
	if ev := tracer.Event(); ev.StoreHits > 0 || ev.SurrogateHits > 0 {
		// A manifest containing any surrogate-served point records
		// estimates, and Estimated marks it so downstream consumers
		// (golden corpora, accuracy studies) never treat it as truth.
		m.Oracle = &obs.ManifestOracle{StoreHits: ev.StoreHits, SurrogateHits: ev.SurrogateHits,
			Estimated: ev.SurrogateHits > 0}
	}
	fill(&m)
	name := strings.ReplaceAll(strings.TrimPrefix(endpoint, "/"), "/", "-") + "-" + traceID + ".json"
	path := filepath.Join(s.opts.ManifestDir, name)
	f, err := os.Create(path)
	if err == nil {
		err = m.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.log.Warn("writing run manifest", "trace_id", traceID, "path", path, "err", err.Error())
	}
}

// WorkloadInfo describes one available benchmark.
type WorkloadInfo struct {
	Name         string `json:"name"`
	Blocks       int    `json:"blocks"`
	StaticInstrs int    `json:"static_instrs"`
	Phases       int    `json:"phases"`
}

func (s *Server) handleWorkloads(http.ResponseWriter, *http.Request) (any, error) {
	ws := core.Workloads()
	out := make([]WorkloadInfo, len(ws))
	for i, w := range ws {
		out[i] = WorkloadInfo{
			Name:         w.Name,
			Blocks:       len(w.Prog.Blocks),
			StaticInstrs: w.Prog.NumStaticInstrs(),
			Phases:       w.Pers.Phases,
		}
	}
	return out, nil
}

// HealthResponse is the GET /healthz body. Live distinguishes "the
// process is up" from Ready, "the process will accept work right now":
// a draining or load-shedding daemon is live but not ready, and the
// endpoint returns 503 so load balancers rotate it out without killing
// the in-flight work it is still finishing. Build carries the binary's
// provenance so an operator can tell at a glance which revision is
// answering.
type HealthResponse struct {
	Status        string    `json:"status"` // ok | shedding | draining
	Live          bool      `json:"live"`
	Ready         bool      `json:"ready"`
	Build         BuildInfo `json:"build"`
	Workers       int       `json:"workers"`
	QueueDepth    int       `json:"queue_depth"`
	CachedSFGs    int       `json:"cached_sfgs"`
	CacheCapacity int       `json:"cache_capacity"`
	ProfileShards int       `json:"profile_shards,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	cst := s.cache.Stats()
	h := HealthResponse{
		Status:        "ok",
		Live:          true,
		Ready:         true,
		Build:         s.build,
		Workers:       st.Workers,
		QueueDepth:    st.QueueDepth,
		CachedSFGs:    cst.Size,
		CacheCapacity: cst.Capacity,
		ProfileShards: s.opts.ProfileShards,
	}
	switch {
	case s.draining.Load():
		h.Status, h.Ready = "draining", false
	case st.QueueDepth >= s.opts.MaxQueueDepth:
		h.Status, h.Ready = "shedding", false
	}
	w.Header().Set("Content-Type", "application/json")
	if !h.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

// metricsSnapshot is the state both metrics views render: the
// registry's families, cache and pool, plus the robustness, fidelity,
// store, oracle and cluster counters.
func (s *Server) metricsSnapshot() MetricsSnapshot {
	snap := s.metrics.Snapshot(s.cache, s.pool)
	snap.Robustness = RobustnessStats{
		Shed:                     s.shed.Load(),
		Retries:                  s.retries.Load(),
		SweepPointsResumed:       s.sweepResumed.Load(),
		SweepPointsFromStore:     s.sweepFromStore.Load(),
		SweepPointsFromSurrogate: s.sweepFromSurrogate.Load(),
		SweepPointsSimulated:     s.sweepSimulated.Load(),
	}
	snap.Fidelity = s.fidelity.stats()
	if s.store != nil {
		st := s.store.Stats()
		snap.Store = &st
	}
	if s.oracle.enabled() {
		st := s.oracle.status()
		snap.Oracle = &st
	}
	if s.cluster != nil {
		snap.Cluster = &ClusterMetrics{ClusterStats: s.cluster.Stats(), Served: s.clusterServed.snapshot()}
	}
	return snap
}

// renderPrometheus writes this node's complete Prometheus exposition —
// the same bytes GET /metrics?format=prometheus serves, reused by the
// fleet-merged view at GET /v1/cluster/metrics.
func (s *Server) renderPrometheus(w io.Writer) error {
	return writePrometheus(w, s.metrics, promSnapshot{
		MetricsSnapshot: s.metricsSnapshot(),
		build:           s.build,
		flightEvents:    s.flight.Total(),
		costs:           s.costs.export(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.renderPrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.metricsSnapshot())
}

// DebugRequestsResponse is the GET /v1/debug/requests body: the flight
// recorder's retained events, newest first.
type DebugRequestsResponse struct {
	Capacity int                `json:"capacity"`
	Total    uint64             `json:"total"`
	Events   []obs.RequestEvent `json:"events"`
}

// handleDebugRequests serves the flight recorder. ?n= bounds how many
// events come back (default: everything retained); ?trace_id= keeps
// only events of one trace — including fan-out sub-sweeps, which carry
// the originating root trace ID, so the filter works across nodes.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeJSONError(w, badRequest("n must be a positive integer"))
			return
		}
		n = v
	}
	events := s.flight.Recent(n)
	if want := obs.SanitizeTraceID(r.URL.Query().Get("trace_id")); want != "" {
		kept := events[:0]
		for _, ev := range events {
			if ev.TraceID == want {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	resp := DebugRequestsResponse{
		Capacity: s.flight.Size(),
		Total:    s.flight.Total(),
		Events:   events,
	}
	if resp.Events == nil {
		resp.Events = []obs.RequestEvent{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleDebugTrace assembles and serves the merged span tree for one
// trace ID: every span this node recorded for the request, including
// the slices its peers shipped back on sub-sweep responses. Spans whose
// parent never arrived (a late or lost peer slice) render as extra
// roots — a partial tree is still a tree, never an error.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := obs.SanitizeTraceID(r.PathValue("id"))
	if id == "" {
		writeJSONError(w, badRequest("a trace ID is required"))
		return
	}
	spans, ok := s.traces.Get(id)
	if !ok {
		writeJSONError(w, &apiError{code: http.StatusNotFound, err: fmt.Errorf("trace %q not retained", id)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(obs.AssembleTree(id, spans))
}

// handleSweepProgress streams a sweep's live progress as server-sent
// events. The id query parameter is the sweep request's trace ID: a
// client sets X-Request-Id on its POST /v1/sweep and subscribes here
// with the same value — before, during or shortly after the sweep,
// since feeds replay their full history to late subscribers. Each SSE
// event carries a JSON ProgressEvent; a terminal "done" or "error"
// event ends the stream.
func (s *Server) handleSweepProgress(w http.ResponseWriter, r *http.Request) {
	id := obs.SanitizeTraceID(r.URL.Query().Get("id"))
	if id == "" {
		writeJSONError(w, badRequest("id query parameter (the sweep's trace ID) is required"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Request-Id", id)
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	feed := s.progress.feed(id)
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	next := 0
	for {
		evs, done, wake := feed.next(next)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
		}
		if len(evs) > 0 {
			next += len(evs)
			fl.Flush()
			continue
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-heartbeat.C:
			// An SSE comment keeps idle connections alive through proxies
			// while the subscriber waits for the sweep to start.
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
