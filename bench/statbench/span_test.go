package main

import "testing"

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60), which overlap
	// (concurrent cohorts), and c [90,120), which runs past the root's
	// end. a has its own child a1 [15,25).
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "lockstep", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "lockstep", StartNS: 30, EndNS: 60},
		{ID: 3, Parent: 0, Name: "journal.append", StartNS: 90, EndNS: 120},
		{ID: 4, Parent: 1, Name: "synth.gen", StartNS: 15, EndNS: 25},
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // union of a and b, c clipped to the root
		30 - 10,
		30,
		30,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i, got[i], want[i])
		}
	}

	sm := summarize(spans)
	if sm.busyNS["op"] != 40 || sm.busyNS["lockstep"] != 50 || sm.busyNS["synth"] != 10 || sm.busyNS["journal"] != 30 {
		t.Errorf("busy by layer = %v", sm.busyNS)
	}
	if sm.total != 130 {
		t.Errorf("total self time = %d, want 130", sm.total)
	}
	if cs := sm.byName["lockstep"]; cs.count != 2 || cs.ns != 60 {
		t.Errorf("lockstep calls = %+v, want 2 calls over 60 ns", cs)
	}
}

func TestRecorderDropsPastCapacity(t *testing.T) {
	r := newRecorder(2)
	a := r.start("op", -1, 0)
	b := r.start("wire.encode", a, 0)
	c := r.start("wire.decode", a, 0)
	r.end(c, 1) // a dropped span ends harmlessly
	r.end(b, 5)
	r.end(a, 1)
	if c != -1 || r.dropped.Load() != 1 {
		t.Errorf("third span on a 2-span recorder: id %d, dropped %d", c, r.dropped.Load())
	}
	spans := r.recorded()
	if len(spans) != 2 || spans[1].Work != 5 || spans[1].Parent != a || spans[0].EndNS < spans[1].EndNS {
		t.Errorf("recorded %+v", spans)
	}
}
