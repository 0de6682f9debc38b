package service

import (
	"encoding/json"
	"net/http"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/resultstore"
	"repro/internal/surrogate"
)

// The two-tier IPC oracle sits between sweep dispatch and the
// executors. Tier one is the durable result store: an exact
// (config fingerprint, profile, reduction, seed) hit returns the
// metrics a previous simulation computed — ground truth, byte-identical
// to re-simulating, journalable. Tier two is the k-NN surrogate:
// trained from every result that flows through the store, it serves
// design points whose predicted uncertainty clears an explicit opt-in
// gate — estimates, always flagged, never journaled, never ground
// truth. Everything else falls through to the lockstep/cluster
// executors, and what they compute feeds both tiers.

// oracleSubdir is where the result store lives under CacheDir,
// alongside the SFG profiles and sweep journals.
const oracleSubdir = "results"

// ServedFromStore and ServedFromSurrogate are the provenance labels on
// oracle-served points (responses, SSE events, flight records,
// manifests). Simulated points carry no label.
const (
	ServedFromStore     = "store"
	ServedFromSurrogate = "surrogate"
)

// oracle bundles the two tiers plus the serving counters. The store is
// nil without a cache dir (the model then trains only from this life's
// traffic); maxCI <= 0 disables surrogate serving entirely — the
// default, so estimates never appear unless an operator asked for them.
type oracle struct {
	store *resultstore.Store
	model *surrogate.Model
	maxCI float64

	storeServed     atomic.Uint64
	surrogateServed atomic.Uint64
	simulated       atomic.Uint64
	gateRejected    atomic.Uint64 // predictions whose uncertainty exceeded the gate
}

// newOracle opens the result store under dir (skipped when dir is
// empty) and warm-starts the surrogate from every persisted record.
func newOracle(dir string, maxCI float64) (*oracle, error) {
	o := &oracle{model: surrogate.New(0), maxCI: maxCI}
	if dir != "" {
		st, err := resultstore.Open(dir)
		if err != nil {
			return nil, err
		}
		o.store = st
		st.Range(func(k resultstore.Key, m core.Metrics) bool {
			o.model.Add(k.Context(), featuresForKey(k), m.IPC(), m.EPC())
			return true
		})
	}
	return o, nil
}

// enabled reports whether the oracle can ever serve anything: without a
// store and without surrogate serving it is pure overhead and every
// call short-circuits.
func (o *oracle) enabled() bool { return o != nil && (o.store != nil || o.maxCI > 0) }

func (o *oracle) close() error {
	if o == nil || o.store == nil {
		return nil
	}
	return o.store.Close()
}

// featuresForKey recovers the surrogate's feature vector from a stored
// key's in-the-clear dimensions.
func featuresForKey(k resultstore.Key) surrogate.Features {
	d := k.Dims
	return surrogate.FromDims(d.RUU, d.LSQ, d.Decode, d.Issue, d.Commit, d.IFQ)
}

// oracleKey builds the exact identity of one simulation: the applied
// configuration's fingerprint (what run manifests carry) plus every
// input the metrics are a deterministic function of.
func oracleKey(pk ProfileKey, cfg cpu.Config, red, simSeed uint64) resultstore.Key {
	return resultstore.Key{
		ConfigFP:  obs.Fingerprint(cfg),
		Workload:  pk.Workload,
		K:         pk.K,
		N:         pk.N,
		Seed:      pk.Seed,
		Immediate: pk.Immediate,
		Shards:    pk.Shards,
		Red:       red,
		SimSeed:   simSeed,
		Dims: resultstore.Dims{
			RUU:    cfg.RUUSize,
			LSQ:    cfg.LSQSize,
			Decode: cfg.DecodeWidth,
			Issue:  cfg.IssueWidth,
			Commit: cfg.CommitWidth,
			IFQ:    cfg.IFQSize,
		},
	}
}

// lookup is the tier-one exact hit.
func (o *oracle) lookup(key resultstore.Key) (core.Metrics, bool) {
	if o == nil || o.store == nil {
		return core.Metrics{}, false
	}
	m, ok := o.store.Get(key)
	if ok {
		o.storeServed.Add(1)
	}
	return m, ok
}

// predict is the tier-two gated estimate: a prediction is served only
// when surrogate serving is on and the model's uncertainty clears the
// gate.
func (o *oracle) predict(key resultstore.Key) (surrogate.Estimate, bool) {
	if o == nil || o.maxCI <= 0 {
		return surrogate.Estimate{}, false
	}
	est, ok := o.model.Predict(key.Context(), featuresForKey(key))
	if !ok {
		return surrogate.Estimate{}, false
	}
	if est.Uncertainty > o.maxCI {
		o.gateRejected.Add(1)
		return surrogate.Estimate{}, false
	}
	o.surrogateServed.Add(1)
	return est, true
}

// learn feeds a batch of freshly simulated results (ms[k] belongs to
// keys[k]) into both tiers, persisting the batch as one store commit.
// Store failures are tolerated (counted in store stats; the points are
// simply recomputed in a future life) — a full disk must not fail a
// simulation that already succeeded.
func (o *oracle) learn(keys []resultstore.Key, ms []core.Metrics) {
	if !o.enabled() {
		return
	}
	o.simulated.Add(uint64(len(keys)))
	if o.store != nil {
		_ = o.store.PutBatch(keys, ms)
	}
	for k, key := range keys {
		o.model.Add(key.Context(), featuresForKey(key), ms[k].IPC(), ms[k].EPC())
	}
}

// estimateWire renders a surrogate estimate in the same wire shape as a
// simulated point. Cycles and instructions stay zero — the model
// predicts rates, not traces — and EDP is derived exactly as
// core.Metrics derives it, so best-point selection compares like with
// like.
func estimateWire(est surrogate.Estimate) SimMetrics {
	return SimMetrics{IPC: est.IPC, EPC: est.EPC, EDP: power.EDP(est.EPC, est.IPC)}
}

// OracleStatus is the GET /v1/oracle/status body and the oracle block
// of /metrics.
type OracleStatus struct {
	// StoreEnabled reports a durable store behind tier one;
	// SurrogateEnabled reports an uncertainty gate > 0 (tier two serving
	// on).
	StoreEnabled     bool    `json:"store_enabled"`
	SurrogateEnabled bool    `json:"surrogate_enabled"`
	SurrogateMaxCI   float64 `json:"surrogate_max_ci"`

	// Serving outcomes since start: exact store hits, gated surrogate
	// predictions served, points that fell through to real simulation,
	// and predictions rejected by the uncertainty gate.
	StoreServed     uint64 `json:"store_served"`
	SurrogateServed uint64 `json:"surrogate_served"`
	Simulated       uint64 `json:"simulated"`
	GateRejected    uint64 `json:"gate_rejected"`

	Store *resultstore.Stats `json:"store,omitempty"`
	Model surrogate.Stats    `json:"model"`
}

// status snapshots the oracle. Safe on a nil oracle (reports disabled).
func (o *oracle) status() OracleStatus {
	if o == nil {
		return OracleStatus{}
	}
	st := OracleStatus{
		StoreEnabled:     o.store != nil,
		SurrogateEnabled: o.maxCI > 0,
		SurrogateMaxCI:   o.maxCI,
		StoreServed:      o.storeServed.Load(),
		SurrogateServed:  o.surrogateServed.Load(),
		Simulated:        o.simulated.Load(),
		GateRejected:     o.gateRejected.Load(),
		Model:            o.model.Stats(),
	}
	if o.store != nil {
		s := o.store.Stats()
		st.Store = &s
	}
	return st
}

// handleOracleStatus serves GET /v1/oracle/status.
func (s *Server) handleOracleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.oracle.status())
}
