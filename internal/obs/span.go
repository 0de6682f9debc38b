package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Hierarchical spans are the one span system: pipeline stages, and
// everything around them, are spans with child-of semantics that
// survive the cluster wire. Every span carries its own ID and its
// parent's, the parent ID propagates to peers in a header next to
// X-Request-Id, and peers ship their span slices back piggybacked on
// sub-sweep responses. Assembling the slices from every node that
// touched a request yields one coherent tree — pipeline stages,
// coordinator partitioning, peer sub-sweeps, graph fetches, lockstep
// cohorts, fidelity escalations and oracle decisions, each attributed
// to the node that did the work.
//
// Like FlightRecorder, a nil *Tracer is the valid disabled instance:
// StartSpan on a nil tracer returns a zero ActiveSpan whose Annotate,
// End and EndInstructions are no-ops, Note does nothing and Event
// returns the zero event, all without allocating, so library callers
// (CLI, tests, benchmarks) pay nothing when tracing is off.

// TraceSpan is one completed span on the wire and in the trace store.
type TraceSpan struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Node names the daemon that executed the span — the coordinator's
	// advertised URL, or "local" on an unclustered node and in the CLI.
	Node        string  `json:"node,omitempty"`
	StartUnixNS int64   `json:"start_unix_ns"`
	DurationS   float64 `json:"duration_s"`
	// Instructions is the number of instructions a stage span processed
	// (committed instructions for simulation stages, stream length for
	// profiling); zero on every other span.
	Instructions uint64            `json:"instructions,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
}

// spanIDSeq backs the fallback span ID when the random source fails.
var spanIDSeq atomic.Uint64

// NewSpanID mints an 8-hex-character span ID, unique enough within one
// trace. Like NewTraceID it never fails.
func NewSpanID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := spanIDSeq.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// spanIDKey carries the current span's ID through context so children
// started anywhere below it parent correctly.
type spanIDKey struct{}

// WithSpanID returns a context under which new spans become children of
// the given span ID.
func WithSpanID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, spanIDKey{}, id)
}

// SpanIDFromContext returns the enclosing span's ID, or "" at the root.
func SpanIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(spanIDKey{}).(string)
	return id
}

// tracerKey carries the request's tracer through context, reachable
// from any package (the cluster coordinator starts dispatch spans
// without access to the service layer's internals).
type tracerKey struct{}

// WithTracer returns a context carrying the tracer.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFromContext returns the context's tracer, or nil when the
// request is not being traced — the nil result is directly usable, all
// Tracer methods accept a nil receiver.
func TracerFromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// maxSpansPerTrace bounds what one request may accumulate, so a
// pathological sweep cannot grow a span slice without limit. Beyond the
// cap new spans are counted but dropped.
const maxSpansPerTrace = 8192

// Tracer is the record of one request on one node: its trace ID, the
// spans it produced, and its outcome (a RequestEvent), which the layers
// below the handler — cache fill, retry loop, sweep engine — fill in
// through Note while the request runs.
type Tracer struct {
	traceID string
	node    string

	mu      sync.Mutex
	spans   []TraceSpan
	dropped int
	event   RequestEvent
}

// NewTracer returns a tracer stamping spans with the trace ID and node
// name.
func NewTracer(traceID, node string) *Tracer {
	return &Tracer{traceID: traceID, node: node}
}

// TraceID returns the tracer's trace ID ("" on nil).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// ActiveSpan is an in-flight span. The zero value (from a nil tracer)
// is a valid no-op span.
type ActiveSpan struct {
	t      *Tracer
	name   string
	id     string
	parent string
	start  time.Time
	attrs  map[string]string
}

// StartSpan opens a span named name as a child of the context's current
// span and returns a context under which further spans nest below it.
// On a nil tracer it returns ctx unchanged and a no-op span, without
// allocating.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, ActiveSpan) {
	if t == nil {
		return ctx, ActiveSpan{}
	}
	sp := ActiveSpan{
		t:      t,
		name:   name,
		id:     NewSpanID(),
		parent: SpanIDFromContext(ctx),
		start:  time.Now(),
	}
	return WithSpanID(ctx, sp.id), sp
}

// Annotate attaches a key/value attribute to the span. No-op on the
// zero span.
func (s *ActiveSpan) Annotate(k, v string) {
	if s.t == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
}

// End closes the span and records it on its tracer. No-op on the zero
// span. End is not idempotent-checked; call it exactly once.
func (s *ActiveSpan) End() { s.EndInstructions(0) }

// EndInstructions is End for a stage span, attributing the number of
// instructions the stage processed to it.
func (s *ActiveSpan) EndInstructions(instructions uint64) {
	if s.t == nil {
		return
	}
	s.t.add(TraceSpan{
		TraceID:      s.t.traceID,
		SpanID:       s.id,
		ParentID:     s.parent,
		Name:         s.name,
		Node:         s.t.node,
		StartUnixNS:  s.start.UnixNano(),
		DurationS:    time.Since(s.start).Seconds(),
		Instructions: instructions,
		Attrs:        s.attrs,
	})
}

// Record adds an externally timed span as a child of the context's
// current span: a stage whose time accumulates in pieces rather than
// in one interval, such as generation interleaved with simulation and
// timed by a TimedSource. No-op on a nil tracer.
func (t *Tracer) Record(ctx context.Context, name string, start time.Time, d time.Duration, instructions uint64) {
	if t == nil {
		return
	}
	t.add(TraceSpan{
		TraceID:      t.traceID,
		SpanID:       NewSpanID(),
		ParentID:     SpanIDFromContext(ctx),
		Name:         name,
		Node:         t.node,
		StartUnixNS:  start.UnixNano(),
		DurationS:    d.Seconds(),
		Instructions: instructions,
	})
}

func (t *Tracer) add(span TraceSpan) {
	t.mu.Lock()
	if len(t.spans) < maxSpansPerTrace {
		t.spans = append(t.spans, span)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Import merges spans another node shipped back (a peer's sub-sweep
// slice) into this tracer, preserving their origin node stamps.
func (t *Tracer) Import(spans []TraceSpan) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, sp := range spans {
		if len(t.spans) >= maxSpansPerTrace {
			t.dropped += len(spans)
			break
		}
		if sp.TraceID == "" {
			sp.TraceID = t.traceID
		}
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Note applies fn to the request's outcome record under the tracer's
// lock, so concurrent sweep workers and the handler can each add what
// they observed. fn must not call back into the tracer. No-op on a nil
// tracer.
func (t *Tracer) Note(fn func(*RequestEvent)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	fn(&t.event)
	t.mu.Unlock()
}

// Event returns a copy of the outcome record Note has built so far (the
// zero event on a nil tracer).
func (t *Tracer) Event() RequestEvent {
	if t == nil {
		return RequestEvent{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.event
}

// Spans returns a copy of everything recorded so far (nil on a nil
// tracer).
func (t *Tracer) Spans() []TraceSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSpan, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped returns how many spans the per-trace cap discarded.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// TraceNode is one span with its resolved children.
type TraceNode struct {
	TraceSpan
	Children []*TraceNode `json:"children,omitempty"`
}

// TraceTree is the assembled view of one trace: every span every node
// reported, stitched into root trees. Spans whose parent never arrived
// (a late or lost peer slice) surface as additional roots rather than
// failing the assembly — a partial tree always renders.
type TraceTree struct {
	TraceID string `json:"trace_id"`
	Spans   int    `json:"spans"`
	// Nodes lists the distinct daemons that contributed spans, sorted.
	Nodes []string     `json:"nodes"`
	Roots []*TraceNode `json:"roots"`
}

// AssembleTree stitches a flat span slice into a TraceTree. Children
// sort by start time (then span ID) so rendering is deterministic;
// duplicate span IDs (a peer retry replaying a slice) keep their first
// occurrence.
func AssembleTree(traceID string, spans []TraceSpan) TraceTree {
	tree := TraceTree{TraceID: traceID}
	byID := make(map[string]*TraceNode, len(spans))
	order := make([]*TraceNode, 0, len(spans))
	nodes := make(map[string]bool)
	for _, sp := range spans {
		if sp.SpanID == "" || byID[sp.SpanID] != nil {
			continue
		}
		n := &TraceNode{TraceSpan: sp}
		byID[sp.SpanID] = n
		order = append(order, n)
		if sp.Node != "" {
			nodes[sp.Node] = true
		}
	}
	tree.Spans = len(order)
	for _, n := range order {
		if p := byID[n.ParentID]; p != nil && n.ParentID != n.SpanID {
			p.Children = append(p.Children, n)
		} else {
			tree.Roots = append(tree.Roots, n)
		}
	}
	sortNodes := func(ns []*TraceNode) {
		sort.SliceStable(ns, func(i, j int) bool {
			if ns[i].StartUnixNS != ns[j].StartUnixNS {
				return ns[i].StartUnixNS < ns[j].StartUnixNS
			}
			return ns[i].SpanID < ns[j].SpanID
		})
	}
	for _, n := range order {
		sortNodes(n.Children)
	}
	sortNodes(tree.Roots)
	for name := range nodes {
		tree.Nodes = append(tree.Nodes, name)
	}
	sort.Strings(tree.Nodes)
	return tree
}

// TraceStore retains the span slices of the most recent traces, keyed
// by trace ID, bounded by evicting whole traces in insertion order. It
// backs GET /v1/debug/trace/{id}. A nil store no-ops, and fanout
// sub-requests sharing one root trace ID accumulate into one entry.
type TraceStore struct {
	mu     sync.Mutex
	traces map[string][]TraceSpan
	order  []string
	cap    int
}

// NewTraceStore returns a store retaining up to capacity traces
// (minimum 16).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 16 {
		capacity = 16
	}
	return &TraceStore{traces: make(map[string][]TraceSpan, capacity), cap: capacity}
}

// Add appends spans under the trace ID, evicting the oldest trace when
// a new ID exceeds capacity.
func (s *TraceStore) Add(traceID string, spans []TraceSpan) {
	if s == nil || traceID == "" || len(spans) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	held, known := s.traces[traceID]
	if !known {
		for len(s.order) >= s.cap {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.traces, oldest)
		}
		s.order = append(s.order, traceID)
	}
	if room := maxSpansPerTrace - len(held); len(spans) > room {
		spans = spans[:room]
	}
	s.traces[traceID] = append(held, spans...)
}

// Get returns the spans retained for a trace ID and whether the trace
// is known.
func (s *TraceStore) Get(traceID string) ([]TraceSpan, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	spans, ok := s.traces[traceID]
	if !ok {
		return nil, false
	}
	out := make([]TraceSpan, len(spans))
	copy(out, spans)
	return out, true
}

// Len returns how many traces are retained.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}
