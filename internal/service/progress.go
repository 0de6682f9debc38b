package service

import (
	"fmt"
	"math"
	"sync"
)

// Live sweep progress: the sweep engine publishes one event per
// completed design point into a per-request feed keyed by the request's
// trace ID, and GET /v1/sweep/progress?id=<trace-id> streams the feed
// as server-sent events. A client that wants to watch a long sweep sets
// X-Request-Id on its POST /v1/sweep and subscribes with the same ID —
// before, during or shortly after the sweep (feeds buffer their full
// event history, so a late subscriber replays from the start).

// ProgressEvent is one server-sent event of a sweep's lifetime.
type ProgressEvent struct {
	// Type is "start" (sweep admitted: total and resumed counts),
	// "point" (one design point finished), "done" (all points merged) or
	// "error" (the sweep failed).
	Type    string `json:"type"`
	TraceID string `json:"trace_id"`
	// Total and Resumed describe the sweep ("start", "done"): grid size
	// and points served from a checkpoint journal.
	Total   int `json:"total,omitempty"`
	Resumed int `json:"resumed,omitempty"`
	// Completed counts points finished so far, including resumed ones.
	Completed int `json:"completed,omitempty"`
	// Index, Point and Metrics describe one finished point ("point").
	Index   int         `json:"index"`
	Point   *SweepPoint `json:"point,omitempty"`
	Metrics *SimMetrics `json:"metrics,omitempty"`
	// Served distinguishes oracle-answered points from simulated work on
	// "point" events: "store" (exact durable-store hit) or "surrogate"
	// (gated prediction, Estimated=true — the metrics are an estimate,
	// not a measurement). Empty for freshly simulated points.
	Served    string `json:"served,omitempty"`
	Estimated bool   `json:"estimated,omitempty"`
	// FromStore and FromSurrogate summarise the oracle's share of a
	// finished sweep ("done").
	FromStore     int    `json:"from_store,omitempty"`
	FromSurrogate int    `json:"from_surrogate,omitempty"`
	Error         string `json:"error,omitempty"`
}

// Provenance codes of a progressRecord.
const (
	recordSimulated uint8 = iota
	recordStore
	recordSurrogate
)

// progressRecord is one "point" event as the feed retains it: a fixed
// value with no pointers, so a finished sweep's history costs one flat
// array rather than an event plus two heap objects per point, and the
// event is rendered only when a subscriber reads it. Index and completed
// are bounded by the sweep's point count (MaxSweepPoints); the point's
// fields by checkPointRange, which every sweep request passes first.
type progressRecord struct {
	metrics   SimMetrics
	point     [5]int32 // RUU, LSQ, Decode, Issue, Commit
	index     int32
	completed int32
	served    uint8 // recordSimulated, recordStore or recordSurrogate
}

// checkPointRange rejects a point whose fields a progressRecord cannot
// hold. No such point is simulable anyway: its window alone would need
// billions of entries.
func checkPointRange(p SweepPoint) error {
	for _, v := range [...]int{p.RUU, p.LSQ, p.Decode, p.Issue, p.Commit} {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return fmt.Errorf("point %s: field out of range", p)
		}
	}
	return nil
}

// progressFeed is one sweep's ordered event history — "start", the
// point records, then a terminal "done" or "error" — plus a wake
// channel for a parked subscriber. Events are never dropped:
// subscribers read the shared history by index, so a slow consumer lags
// without losing data (the history is bounded by the sweep's point
// count, itself capped by MaxSweepPoints).
type progressFeed struct {
	id string

	mu      sync.Mutex
	wake    chan struct{} // non-nil only while a subscriber waits; closed on publish
	started bool
	start   ProgressEvent
	records []progressRecord
	// fromStore and fromSurrogate tally the records' provenance for the
	// "done" summary.
	fromStore, fromSurrogate int
	done                     bool
	end                      ProgressEvent
}

func newProgressFeed(id string) *progressFeed {
	return &progressFeed{id: id}
}

// wakeLocked releases a parked subscriber, if any.
func (f *progressFeed) wakeLocked() {
	if f.wake != nil {
		close(f.wake)
		f.wake = nil
	}
}

// begin publishes the "start" event for a sweep of total points, resumed
// of them already answered by its journal, and sizes the point history
// for the points still to come. A nil feed discards everything: cluster
// fan-out sub-sweeps share the root request's trace ID, so they run
// with a nil feed rather than colliding with the coordinator's feed for
// the same ID.
func (f *progressFeed) begin(total, resumed int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started || f.done {
		return
	}
	f.started = true
	f.start = ProgressEvent{Type: "start", TraceID: f.id, Total: total, Resumed: resumed, Completed: resumed}
	f.records = make([]progressRecord, 0, max(total-resumed, 0))
	f.wakeLocked()
}

// publishPoints appends one "point" event per index, in order, reading
// each point's outcome from the sweep's grid-order results. Callers
// publish a batch only after its durable commit. Points published
// before "start" or after the terminal event are dropped.
func (f *progressFeed) publishPoints(indices []int, results []SweepResult) {
	if f == nil || len(indices) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, i := range indices {
		res := &results[i]
		switch {
		case res.Estimate != nil:
			f.appendLocked(i, res.Point, estimateWire(*res.Estimate), recordSurrogate)
		case res.Served == ServedFromStore:
			f.appendLocked(i, res.Point, wireMetrics(res.Metrics), recordStore)
		default:
			f.appendLocked(i, res.Point, wireMetrics(res.Metrics), recordSimulated)
		}
	}
	f.wakeLocked()
}

// publishPoint appends one simulated point's event whose wire metrics
// the caller already rendered.
func (f *progressFeed) publishPoint(index int, pt SweepPoint, m SimMetrics) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.appendLocked(index, pt, m, recordSimulated)
	f.wakeLocked()
}

func (f *progressFeed) appendLocked(index int, pt SweepPoint, m SimMetrics, served uint8) {
	if !f.started || f.done {
		return
	}
	switch served {
	case recordStore:
		f.fromStore++
	case recordSurrogate:
		f.fromSurrogate++
	}
	f.records = append(f.records, progressRecord{
		metrics:   m,
		point:     [5]int32{int32(pt.RUU), int32(pt.LSQ), int32(pt.Decode), int32(pt.Issue), int32(pt.Commit)},
		index:     int32(index),
		completed: int32(f.start.Resumed + len(f.records) + 1),
		served:    served,
	})
}

// finish publishes the terminal event — "done" when err is nil, "error"
// otherwise — with the completion count and oracle provenance tallied
// from the feed's own history. Only the first terminal event counts.
func (f *progressFeed) finish(err error) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	f.done = true
	f.end = ProgressEvent{TraceID: f.id, Total: f.start.Total, Resumed: f.start.Resumed,
		Completed: f.start.Resumed + len(f.records)}
	if err != nil {
		f.end.Type, f.end.Error = "error", err.Error()
	} else {
		f.end.Type, f.end.FromStore, f.end.FromSurrogate = "done", f.fromStore, f.fromSurrogate
	}
	f.wakeLocked()
}

// next renders the events from index from onward and reports whether
// the feed has ended. When nothing new is available on a live feed it
// instead returns a channel that closes on the next publish, for the
// caller to park on.
func (f *progressFeed) next(from int) (evs []ProgressEvent, done bool, wake <-chan struct{}) {
	if f == nil {
		return nil, true, nil
	}
	f.mu.Lock()
	started, start, records, done, end := f.started, f.start, f.records, f.done, f.end
	n := len(records)
	if started {
		n++
	}
	if done {
		n++
	}
	if from >= n {
		if !done && f.wake == nil {
			f.wake = make(chan struct{})
		}
		wake = f.wake
		f.mu.Unlock()
		return nil, done, wake
	}
	f.mu.Unlock()

	// Records below len are never rewritten, so rendering reads the
	// snapshot outside the lock.
	evs = make([]ProgressEvent, 0, n-from)
	points := make([]SweepPoint, 0, n-from)
	metrics := make([]SimMetrics, 0, n-from)
	for i := from; i < n; i++ {
		k := i
		if started {
			if k == 0 {
				evs = append(evs, start)
				continue
			}
			k--
		}
		if k == len(records) {
			evs = append(evs, end)
			continue
		}
		r := &records[k]
		p := r.point
		points = append(points, SweepPoint{RUU: int(p[0]), LSQ: int(p[1]), Decode: int(p[2]), Issue: int(p[3]), Commit: int(p[4])})
		metrics = append(metrics, r.metrics)
		ev := ProgressEvent{Type: "point", TraceID: f.id, Completed: int(r.completed), Index: int(r.index),
			Point: &points[len(points)-1], Metrics: &metrics[len(metrics)-1]}
		switch r.served {
		case recordStore:
			ev.Served = ServedFromStore
		case recordSurrogate:
			ev.Served, ev.Estimated = ServedFromSurrogate, true
		}
		evs = append(evs, ev)
	}
	return evs, done, nil
}

// progressHub indexes feeds by trace ID. Finished feeds are retained
// (so a subscriber attaching just after completion still replays the
// run) until capacity forces eviction, oldest-finished first.
type progressHub struct {
	capacity int

	mu    sync.Mutex
	feeds map[string]*progressFeed
	order []string // insertion order, for eviction
}

func newProgressHub(capacity int) *progressHub {
	if capacity < 1 {
		capacity = 64
	}
	return &progressHub{capacity: capacity, feeds: make(map[string]*progressFeed)}
}

// feed returns (creating if needed) the feed for a trace ID. Both the
// sweep handler and subscribers use it, so subscribing before the sweep
// starts works: the subscriber parks on the empty feed and replays once
// the sweep attaches.
func (h *progressHub) feed(id string) *progressFeed {
	h.mu.Lock()
	defer h.mu.Unlock()
	if f, ok := h.feeds[id]; ok {
		return f
	}
	f := newProgressFeed(id)
	h.feeds[id] = f
	h.order = append(h.order, id)
	h.evictLocked()
	return f
}

// evictLocked drops the oldest finished feeds past capacity; if none
// have finished, the oldest feed goes regardless so a flood of
// never-started subscriptions cannot grow the hub without bound.
func (h *progressHub) evictLocked() {
	for len(h.order) > h.capacity {
		victim := -1
		for i, id := range h.order {
			if f := h.feeds[id]; f != nil {
				f.mu.Lock()
				done := f.done
				f.mu.Unlock()
				if done {
					victim = i
					break
				}
			}
		}
		if victim < 0 {
			victim = 0
		}
		delete(h.feeds, h.order[victim])
		h.order = append(h.order[:victim], h.order[victim+1:]...)
	}
}

// size reports the resident feed count.
func (h *progressHub) size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.feeds)
}
