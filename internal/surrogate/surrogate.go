// Package surrogate is the learned fast path of the daemon's two-tier
// IPC oracle: a pure-Go k-nearest-neighbour regressor over normalised
// microarchitecture features, trained incrementally from the result
// store's finished (configuration → IPC/EPC) tuples and answering in
// microseconds with an estimate *and an uncertainty score*. The service
// serves a prediction only when its uncertainty is below an explicit,
// opt-in gate, and falls back to real simulation otherwise — the
// TAO-style design (PAPERS.md) where fallback traffic continuously
// improves the model.
//
// Models are partitioned by context (workload, SFG order, stream
// length, seeds, reduction): the regressor interpolates across the
// design space of one profiled workload, never across workloads, so a
// prediction is always a statement about configurations whose true
// results bracket it.
package surrogate

import (
	"math"
	"sync"

	"repro/internal/cpu"
)

// NumFeatures is the dimensionality of the normalised feature vector.
const NumFeatures = 6

// Features is one configuration's position in the normalised design
// space. Window sizes and widths enter as log2 scaled into [0,1] —
// IPC responds roughly logarithmically to window capacity (doubling the
// RUU matters; adding 8 entries to 128 does not), so log-space
// distances weight design-space neighbourhoods the way the response
// surface actually bends.
type Features [NumFeatures]float64

// log2Norm maps v onto log2(v)/log2(max), clamped to [0,1].
func log2Norm(v, max int) float64 {
	if v < 1 {
		v = 1
	}
	f := math.Log2(float64(v)) / math.Log2(float64(max))
	return math.Min(f, 1)
}

// FromDims builds the feature vector from raw design-space knobs.
func FromDims(ruu, lsq, decode, issue, commit, ifq int) Features {
	return Features{
		log2Norm(ruu, cpu.MaxBufferSize),
		log2Norm(lsq, cpu.MaxBufferSize),
		log2Norm(decode, cpu.MaxWidth),
		log2Norm(issue, cpu.MaxWidth),
		log2Norm(commit, cpu.MaxWidth),
		log2Norm(ifq, cpu.MaxBufferSize),
	}
}

// Estimate is one prediction: IPC/EPC point estimates plus the model's
// relative uncertainty — the weighted worst-case neighbour deviation
// plus a distance penalty, as a fraction of the predicted IPC. A
// prediction is served only below the caller's gate; it is never
// mistakable for ground truth (callers flag it estimated and keep it
// out of journals and golden corpora).
type Estimate struct {
	IPC         float64 `json:"ipc"`
	EPC         float64 `json:"epc"`
	Uncertainty float64 `json:"uncertainty"`
	Neighbors   int     `json:"neighbors"`
}

// Defaults: K neighbours per prediction, the minimum training set
// before any prediction is attempted, and the per-context sample cap
// that bounds memory on a long-lived daemon.
const (
	DefaultK      = 4
	minSamples    = DefaultK
	maxPerContext = 8192
	// distWeight converts the weighted mean neighbour distance (in
	// normalised feature space) into relative uncertainty: extrapolating
	// is penalised even when the neighbours agree with each other.
	distWeight = 1.0
	// distEps keeps inverse-distance weights finite at the training
	// points themselves.
	distEps = 1e-6
)

// sample is one training point.
type sample struct {
	f        Features
	ipc, epc float64
}

// ctxSamples is one context's training set: a bounded ring plus an
// exact-feature index so re-simulated points update in place instead of
// stacking duplicates (k identical neighbours would fake certainty).
type ctxSamples struct {
	samples []sample
	byFeat  map[Features]int
	next    int // ring cursor once the cap is reached
}

// Model is the incremental k-NN regressor. All methods are safe for
// concurrent use; Predict takes only a read lock.
type Model struct {
	k int

	mu   sync.RWMutex
	ctxs map[string]*ctxSamples
	adds uint64
}

// New returns an empty model predicting from k neighbours (<= 0 means
// DefaultK).
func New(k int) *Model {
	if k <= 0 {
		k = DefaultK
	}
	return &Model{k: k, ctxs: make(map[string]*ctxSamples)}
}

// Add trains on one finished result. An existing sample at the same
// features is overwritten (results are deterministic, so the values are
// identical — this is dedup, not drift correction).
func (m *Model) Add(ctx string, f Features, ipc, epc float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cs, ok := m.ctxs[ctx]
	if !ok {
		cs = &ctxSamples{byFeat: make(map[Features]int)}
		m.ctxs[ctx] = cs
	}
	m.adds++
	if i, ok := cs.byFeat[f]; ok {
		cs.samples[i] = sample{f: f, ipc: ipc, epc: epc}
		return
	}
	if len(cs.samples) < maxPerContext {
		cs.byFeat[f] = len(cs.samples)
		cs.samples = append(cs.samples, sample{f: f, ipc: ipc, epc: epc})
		return
	}
	// Ring overwrite: evict the oldest slot's feature index entry.
	old := cs.samples[cs.next]
	delete(cs.byFeat, old.f)
	cs.samples[cs.next] = sample{f: f, ipc: ipc, epc: epc}
	cs.byFeat[f] = cs.next
	cs.next = (cs.next + 1) % maxPerContext
}

func dist(a, b Features) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Predict estimates IPC/EPC at f within ctx. The bool is false when the
// context is unknown or holds fewer than minSamples training points —
// the model refuses to guess from nothing.
func (m *Model) Predict(ctx string, f Features) (Estimate, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	cs, ok := m.ctxs[ctx]
	if !ok || len(cs.samples) < minSamples {
		return Estimate{}, false
	}

	// k nearest by linear scan — training sets are thousands of points
	// at most, and the scan is allocation-free.
	type nb struct {
		d float64
		s sample
	}
	var nearest [8]nb // k is clamped to this
	k := m.k
	if k > len(nearest) {
		k = len(nearest)
	}
	if k > len(cs.samples) {
		k = len(cs.samples)
	}
	n := 0
	for _, s := range cs.samples {
		d := dist(f, s.f)
		if n < k {
			nearest[n] = nb{d: d, s: s}
			n++
			// Keep the farthest at the end.
			for i := n - 1; i > 0 && nearest[i].d < nearest[i-1].d; i-- {
				nearest[i], nearest[i-1] = nearest[i-1], nearest[i]
			}
			continue
		}
		if d >= nearest[k-1].d {
			continue
		}
		nearest[k-1] = nb{d: d, s: s}
		for i := k - 1; i > 0 && nearest[i].d < nearest[i-1].d; i-- {
			nearest[i], nearest[i-1] = nearest[i-1], nearest[i]
		}
	}

	// Inverse-distance-weighted means.
	var wSum, ipc, epc, dMean float64
	for i := 0; i < k; i++ {
		w := 1 / (nearest[i].d + distEps)
		wSum += w
		ipc += w * nearest[i].s.ipc
		epc += w * nearest[i].s.epc
		dMean += w * nearest[i].d
	}
	ipc /= wSum
	epc /= wSum
	dMean /= wSum

	// Uncertainty: the worst weighted neighbour's relative deviation
	// from the prediction — how far the truth can sit from the estimate
	// if it lies within the neighbourhood's value range — plus a
	// distance penalty for extrapolating beyond the training cloud.
	var maxDev float64
	for i := 0; i < k; i++ {
		if dev := math.Abs(nearest[i].s.ipc - ipc); dev > maxDev {
			maxDev = dev
		}
	}
	unc := distWeight * dMean
	if ipc > 0 {
		unc += maxDev / ipc
	} else {
		unc = math.Inf(1)
	}
	return Estimate{IPC: ipc, EPC: epc, Uncertainty: unc, Neighbors: k}, true
}

// Stats is a point-in-time snapshot of the model's training state.
type Stats struct {
	Contexts int    `json:"contexts"`
	Samples  int    `json:"samples"`
	Adds     uint64 `json:"adds"`
	K        int    `json:"k"`
}

// Stats reports the model's training state.
func (m *Model) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := Stats{Contexts: len(m.ctxs), Adds: m.adds, K: m.k}
	for _, cs := range m.ctxs {
		s.Samples += len(cs.samples)
	}
	return s
}
