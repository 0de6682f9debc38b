package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// ManifestVersion is bumped when the manifest schema changes shape.
const ManifestVersion = 1

// StageTiming is one pipeline stage's contribution to a run.
type StageTiming struct {
	Name         string  `json:"name"`
	DurationS    float64 `json:"duration_s"`
	Instructions uint64  `json:"instructions,omitempty"`
	InstPerSec   float64 `json:"inst_per_sec,omitempty"`
}

// ManifestMetrics is the final-metrics block of a run manifest — the
// numbers the paper's evaluation argues about, in a stable wire form.
type ManifestMetrics struct {
	IPC              float64 `json:"ipc"`
	EPC              float64 `json:"epc"`
	EDP              float64 `json:"edp"`
	Instructions     uint64  `json:"instructions"`
	Cycles           uint64  `json:"cycles"`
	MispredictsPerKI float64 `json:"mispredicts_per_ki"`
	L1DMissRate      float64 `json:"l1d_miss_rate"`
	L2DMissRate      float64 `json:"l2d_miss_rate"`
	L1IMissRate      float64 `json:"l1i_miss_rate"`
	L2IMissRate      float64 `json:"l2i_miss_rate"`
}

// ManifestFidelity is the adaptive-fidelity block of a run manifest:
// how the engine spent its budget and how tight the interval it
// delivered is. Present only on runs that used the fidelity engine.
type ManifestFidelity struct {
	Confidence   float64 `json:"confidence"`
	TargetCI     float64 `json:"target_ci"`
	RelHalfWidth float64 `json:"rel_half_width"`
	Converged    bool    `json:"converged"`
	Strata       int     `json:"strata"`
	Escalations  int     `json:"escalations"`
	// DetailedInsts counts instructions run through the execution-driven
	// model (warm-up included); DetailedFrac is its share of the covered
	// stream.
	DetailedInsts uint64  `json:"detailed_insts"`
	DetailedFrac  float64 `json:"detailed_frac"`
	IPCLo         float64 `json:"ipc_lo"`
	IPCHi         float64 `json:"ipc_hi"`
}

// ManifestOracle is the serving-provenance block of a run manifest:
// how many of the run's design points were answered by each tier of
// the two-tier result oracle instead of being simulated. Estimated is
// true iff any point is a surrogate prediction — such a manifest
// records estimates, never ground truth, and must not seed golden
// corpora.
type ManifestOracle struct {
	StoreHits     int  `json:"store_hits"`
	SurrogateHits int  `json:"surrogate_hits"`
	Estimated     bool `json:"estimated"`
}

// ManifestCost is the cost-accounting block of a run manifest: where
// a sweep's wall time went, broken down by serving tier, plus which
// nodes executed points and how many answers are estimates rather than
// exact results. PointsByTier keys are the ledger tiers (resumed,
// store, surrogate, simulated); SecondsByTier shares the key set.
type ManifestCost struct {
	Points        int                `json:"points"`
	PointsByTier  map[string]int     `json:"points_by_tier"`
	SecondsByTier map[string]float64 `json:"seconds_by_tier"`
	Nodes         []string           `json:"nodes,omitempty"`
	Estimated     int                `json:"estimated,omitempty"`
}

// Manifest is the JSON run manifest a front end emits (statsim -stats,
// experiment artifacts): everything needed to reproduce the run plus
// where its time went.
type Manifest struct {
	Version   int    `json:"version"`
	Tool      string `json:"tool"`    // e.g. "statsim compare"
	Created   string `json:"created"` // RFC 3339
	GoVersion string `json:"go_version"`
	// TraceID ties the manifest to the request (daemon) or invocation
	// (CLI) that produced it — the same ID the structured logs and the
	// flight recorder carry.
	TraceID string `json:"trace_id,omitempty"`

	// Reproducibility inputs.
	ConfigFingerprint string `json:"config_fingerprint"`
	Workload          string `json:"workload,omitempty"`
	K                 int    `json:"k"`
	Seed              uint64 `json:"seed,omitempty"`
	SimSeed           uint64 `json:"sim_seed,omitempty"`
	Reduction         uint64 `json:"reduction,omitempty"`
	StreamLength      uint64 `json:"stream_length,omitempty"`

	// Where the time went.
	Stages     []StageTiming `json:"stages"`
	WallTimeS  float64       `json:"wall_time_s"`
	MaxProcs   int           `json:"gomaxprocs"`
	NumWorkers int           `json:"workers,omitempty"`

	// What came out.
	Metrics *ManifestMetrics `json:"metrics,omitempty"`
	// How adaptively it was computed, when the fidelity engine ran.
	Fidelity *ManifestFidelity `json:"fidelity,omitempty"`
	// Where the answers came from, when the result oracle served any.
	Oracle *ManifestOracle `json:"oracle,omitempty"`
	// Where the wall time went per serving tier and node, when the cost
	// ledger ran.
	Cost *ManifestCost `json:"cost,omitempty"`
}

// NewManifest starts a manifest for the named tool, stamped now.
func NewManifest(tool string) Manifest {
	return Manifest{
		Version:   ManifestVersion,
		Tool:      tool,
		Created:   time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
}

// FillStages sets the manifest's stage timings (Tracer.Stages) and its
// wall time, their sum, and stamps the tracer's trace ID unless the
// manifest already carries one. A nil tracer leaves the manifest as is.
func (m *Manifest) FillStages(t *Tracer) {
	if t == nil {
		return
	}
	if m.TraceID == "" {
		m.TraceID = t.TraceID()
	}
	m.Stages = t.Stages()
	for _, st := range m.Stages {
		m.WallTimeS += st.DurationS
	}
}

// Stages folds the tracer's stage spans into per-stage timings in
// pipeline order: summed instructions and summed self time, a span's
// duration less that of the stage spans directly under it, so nested
// stages (generate inside simulate) add up to the wall time of the
// outer one instead of counting it twice. Only spans stamped with this
// tracer's node count: a fanout peer's imported stages count on the
// peer. This is the one place stage time is computed; manifests, the
// daemon's stage families and flight-recorder events all read it. Nil
// on a nil tracer or when no stage ran.
func (t *Tracer) Stages() []StageTiming {
	if t == nil {
		return nil
	}
	var sum [len(stageOrder)]StageTiming
	t.mu.Lock()
	stageOf := make(map[string]int) // span ID -> stage, for this node's stage spans
	for _, sp := range t.spans {
		if s := stageIndex(sp.Name); s >= 0 && sp.Node == t.node {
			stageOf[sp.SpanID] = s
			sum[s].Name = sp.Name
			sum[s].DurationS += sp.DurationS
			sum[s].Instructions += sp.Instructions
		}
	}
	for _, sp := range t.spans {
		if p, ok := stageOf[sp.ParentID]; ok && stageIndex(sp.Name) >= 0 && sp.Node == t.node {
			sum[p].DurationS -= sp.DurationS
		}
	}
	t.mu.Unlock()
	if len(stageOf) == 0 {
		return nil
	}
	out := make([]StageTiming, 0, len(sum))
	for _, st := range sum {
		if st.Name == "" {
			continue // the stage did not run
		}
		if st.Instructions > 0 && st.DurationS > 0 {
			st.InstPerSec = float64(st.Instructions) / st.DurationS
		}
		out = append(out, st)
	}
	return out
}

// WriteJSON writes the manifest as indented JSON.
func (m Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Fingerprint returns a stable hex digest of any JSON-marshalable
// value — used to fingerprint microarchitecture configurations so a
// manifest pins exactly what was simulated. Two configs fingerprint
// equal iff their JSON forms are byte-identical (struct field order is
// fixed by the type, so this is deterministic for the same binary).
func Fingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Configurations are plain structs; a marshal failure is a
		// programming error surfaced loudly rather than silently hashed.
		panic(fmt.Sprintf("obs: fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]) // 64 bits is plenty for identity
}
