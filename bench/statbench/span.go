package main

import (
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer during the traced replay. Work is
// what the call processed (instructions, point-instructions, bytes) for
// the per-unit metrics; it is not written out.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // -1 for a root
	Request int32  `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Work    int64  `json:"-"`
}

// recorder keeps spans in a slice allocated up front, so recording is
// two clock reads and a store. Each slot is written only by the
// goroutine that reserved it; read the spans after those goroutines
// have been waited for.
type recorder struct {
	t0      time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, capacity)}
}

// start opens a span and returns its ID, or -1 once the slice is full
// (the span is then dropped and counted; its children become roots).
func (r *recorder) start(name string, parent, request int32) int32 {
	id := r.next.Add(1) - 1
	if int(id) >= len(r.spans) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[id] = span{ID: id, Parent: parent, Request: request, Name: name, StartNS: int64(time.Since(r.t0))}
	return id
}

func (r *recorder) end(id int32, work int64) {
	if id < 0 {
		return
	}
	s := &r.spans[id]
	s.EndNS = int64(time.Since(r.t0))
	s.Work = work
}

// call records fn as one span; fn returns the work it did.
func (r *recorder) call(name string, parent, request int32, fn func() int64) {
	id := r.start(name, parent, request)
	r.end(id, fn())
}

func (r *recorder) recorded() []span { return r.spans[:min(int(r.next.Load()), len(r.spans))] }

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover. Children may overlap (concurrent cohorts),
// so they are merged before subtracting.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			a, b := max(spans[c].StartNS, s.StartNS), min(spans[c].EndNS, s.EndNS)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > reach {
				covered += v.b - v.a
				reach = v.b
			} else if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerOf maps a span name to its layer: the module name before the
// first dot ("synth.reduce" belongs to synth).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// callStats sums the spans of one name.
type callStats struct {
	count int64
	ns    int64 // summed durations
	work  int64
}

// summary aggregates recorded spans: per-name totals, and per-layer busy
// time (summed self time).
type summary struct {
	byName map[string]callStats
	busyNS map[string]int64
	total  int64 // summed self time of every span
}

func summarize(spans []span) summary {
	sm := summary{byName: make(map[string]callStats), busyNS: make(map[string]int64)}
	for i, self := range selfTimes(spans) {
		s := spans[i]
		cs := sm.byName[s.Name]
		cs.count++
		cs.ns += s.EndNS - s.StartNS
		cs.work += s.Work
		sm.byName[s.Name] = cs
		sm.busyNS[layerOf(s.Name)] += self
		sm.total += self
	}
	return sm
}
