package cpu

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// TestRunBuffersRecycled: a second run over the same materialised trace
// takes the first run's spool window, RUU waiter lists, dependency table
// and completion-wheel slots from the pools instead of growing them
// again. Skipped under -race, which instruments allocations (and drops
// pooled items at random).
func TestRunBuffersRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	insts := randomStream(1, 20_000)
	cfg := DefaultConfig()
	// One P and no collection while the steady state is measured: a
	// goroutine that moves between Ps can miss sync.Pool's per-P cache,
	// and a collection empties the pools (both documented behaviour).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() { NewTraceDriven(cfg, trace.NewSliceSource(insts)).Run() }
	p := NewTraceDriven(cfg, trace.NewSliceSource(insts))
	// The first run grows the pooled buffers to this working set; a
	// second Finalize returns the same Result and recycles nothing twice.
	if r := p.Run(); !reflect.DeepEqual(p.Finalize(), r) {
		t.Fatal("a second Finalize changed the Result")
	}
	// What a run still allocates: the source, the spool, its cursor and
	// cursor list, the pipeline and its five functional-unit pools.
	if a := testing.AllocsPerRun(20, run); a > 10 {
		t.Errorf("a recycled run allocates %v objects, want at most 10", a)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		run()
	}
	runtime.ReadMemStats(&after)
	ruuBytes := uint64(cfg.RUUSize) * uint64(unsafe.Sizeof(ruuEntry{}))
	if b := (after.TotalAlloc - before.TotalAlloc) / 10; b >= ruuBytes {
		t.Errorf("a recycled run allocates %d bytes, more than its RUU alone (%d)", b, ruuBytes)
	}
}

// TestRunBufsResetToFresh: reset turns the working set of a pipeline
// stopped mid-run — live RUU entries with waiters, pending wheel slots,
// dependency records, a ready list — into exactly a fresh one, for a
// smaller, the same and a larger configuration. The kernel's generation
// and position checks make most leftovers harmless — dropping any one
// reset changed no Result over six configurations run on dirtied
// buffers — so a results check would not notice a missing reset; this
// pins the reset itself.
func TestRunBufsResetToFresh(t *testing.T) {
	cfg := DefaultConfig()
	insts := randomStream(5, 6_000)
	for i := range insts {
		// Short dependencies, so consumers wait on producers in flight.
		insts[i].NumSrcs, insts[i].DepDist[0] = 1, uint32(1+i%4)
	}
	p := NewTraceDriven(cfg, trace.NewSliceSource(insts))
	b := p.bufs
	dirty := func() bool {
		waiting, pending := false, false
		for i := range b.ruu {
			waiting = waiting || len(b.ruu[i].waiters) > 0
		}
		for i := range b.wheel {
			pending = pending || len(b.wheel[i]) > 0
		}
		return waiting && pending
	}
	for limit := uint64(100); !dirty(); limit++ {
		if p.RunToFetch(limit) {
			t.Fatal("the run drained before its working set was dirty enough to test reset")
		}
	}
	b.ready = append(p.ready, 1, 2, 3) // issue rarely leaves the list non-empty
	for _, sz := range [][4]int{{16, 4, 16, 256}, {cfg.RUUSize, cfg.IFQSize, 128, 512}, {512, 64, 512, 1024}} {
		b.reset(sz[0], sz[1], sz[2], sz[3])
		if len(b.ruu) != sz[0] || len(b.ifq) != sz[1] || len(b.deps) != sz[2] ||
			len(b.wheel) != sz[3] || len(b.wheelBits) != sz[3]/64 || len(b.ready) != 0 {
			t.Fatalf("sizes %v: reset to %d/%d/%d/%d/%d/%d", sz,
				len(b.ruu), len(b.ifq), len(b.deps), len(b.wheel), len(b.wheelBits), len(b.ready))
		}
		for i, e := range b.ruu {
			if len(e.waiters) != 0 {
				t.Fatalf("sizes %v: RUU slot %d keeps %d waiters", sz, i, len(e.waiters))
			}
			if e.waiters = nil; !reflect.DeepEqual(e, ruuEntry{}) {
				t.Fatalf("sizes %v: RUU slot %d not zeroed: %+v", sz, i, e)
			}
		}
		for i, w := range b.wheel {
			if len(w) != 0 {
				t.Fatalf("sizes %v: wheel slot %d keeps %d entries", sz, i, len(w))
			}
		}
		for i := range b.ifq {
			if b.ifq[i] != (ifqEntry{}) {
				t.Fatalf("sizes %v: IFQ entry %d not zeroed", sz, i)
			}
		}
		for i := range b.deps {
			if b.deps[i] != (depRec{}) {
				t.Fatalf("sizes %v: dependency record %d not zeroed", sz, i)
			}
		}
		for i, w := range b.wheelBits {
			if w != 0 {
				t.Fatalf("sizes %v: wheel bits word %d not clear", sz, i)
			}
		}
	}
}
