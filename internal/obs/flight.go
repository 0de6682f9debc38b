package obs

import (
	"sync"
	"time"
)

// RequestEvent is one request's outcome record: enough provenance to
// reconstruct what the daemon did for the request (which endpoint,
// which trace ID, whether the profile came from cache, what the
// degradation machinery did, where the time went) without external log
// storage. While the request runs its Tracer holds the record and the
// layers below the handler fill in the provenance fields (Tracer.Note);
// when it completes the daemon stamps identity, status and timings onto
// a copy and the flight recorder keeps it.
type RequestEvent struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	TraceID  string    `json:"trace_id"`
	Endpoint string    `json:"endpoint"`
	Status   int       `json:"status"`

	DurationMS float64 `json:"duration_ms"`
	// StageMS breaks the request down by pipeline stage (profile,
	// reduce, generate, simulate): the self times Tracer.Stages reports
	// for the stages this node ran.
	StageMS map[string]float64 `json:"stage_ms,omitempty"`

	// Provenance and degradation outcomes.
	CacheHit bool   `json:"cache_hit,omitempty"`
	Shed     bool   `json:"shed,omitempty"`
	Retries  int    `json:"retries,omitempty"`
	Resumed  int    `json:"resumed,omitempty"`
	Panicked bool   `json:"panicked,omitempty"`
	Error    string `json:"error,omitempty"`

	// Cluster provenance. Peer names the remote node involved: the peer
	// a profile was fetched from on request events, or the subject peer
	// on the coordinator's own "cluster.eject"/"cluster.readmit"/
	// "cluster.failover" events — the trail that lets /v1/debug/requests
	// explain why a request was rerouted. Failovers counts peers lost
	// (and re-partitioned around) while the request's sweep ran.
	Peer      string `json:"peer,omitempty"`
	Failovers int    `json:"failovers,omitempty"`

	// Oracle provenance: design points this request was served from the
	// durable result store (exact hits, ground truth) and from the
	// gated surrogate (flagged estimates) instead of simulating.
	StoreHits     int `json:"store_hits,omitempty"`
	SurrogateHits int `json:"surrogate_hits,omitempty"`

	// Spans counts the hierarchical trace spans the request produced on
	// this node (peer slices included on the coordinator) — the handle
	// /v1/debug/requests gives for "is there a tree worth fetching at
	// /v1/debug/trace/{id}?".
	Spans int `json:"spans,omitempty"`

	// Adaptive-fidelity outcomes (zero unless the request ran the
	// fidelity engine).
	Escalations   int     `json:"escalations,omitempty"`
	DetailedInsts uint64  `json:"detailed_insts,omitempty"`
	CIWidth       float64 `json:"ci_width,omitempty"`
}

// FlightRecorder keeps the last N request events in a fixed-size ring.
// It is the daemon's black box: always on, bounded memory, readable at
// GET /v1/debug/requests and dumped to the log when something goes
// badly wrong (a shed storm, a worker panic). Like Tracer, a nil
// *FlightRecorder is a valid disabled instance — every method no-ops —
// and the critical section is a single slot copy, so recording costs a
// short uncontended lock, never an allocation after construction.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []RequestEvent
	next int    // slot the next event lands in
	seq  uint64 // events ever recorded
}

// NewFlightRecorder returns a recorder holding the most recent size
// events (minimum 16).
func NewFlightRecorder(size int) *FlightRecorder {
	if size < 16 {
		size = 16
	}
	return &FlightRecorder{ring: make([]RequestEvent, size)}
}

// Record stores one event, evicting the oldest once the ring is full.
func (f *FlightRecorder) Record(ev RequestEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.seq++
	ev.Seq = f.seq
	f.ring[f.next] = ev
	f.next = (f.next + 1) % len(f.ring)
	f.mu.Unlock()
}

// Recent returns up to n events, newest first (n <= 0 means everything
// retained). On a nil recorder it returns nil.
func (f *FlightRecorder) Recent(n int) []RequestEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	held := int(f.seq)
	if held > len(f.ring) {
		held = len(f.ring)
	}
	if n <= 0 || n > held {
		n = held
	}
	out := make([]RequestEvent, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, f.ring[(f.next-i+len(f.ring))%len(f.ring)])
	}
	return out
}

// Size returns the ring capacity (0 on a nil recorder).
func (f *FlightRecorder) Size() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Total returns how many events were ever recorded (0 on nil).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}
