package lockstep_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/lockstep"
	"repro/internal/trace"
)

// TestSimulateRecyclesRunBuffers: a lockstep group of 16 configurations
// run again over the same materialised trace takes the spool window and
// every pipeline's RUU waiter lists, dependency table and wheel slots
// from the pools instead of growing them again. Skipped under -race,
// which instruments allocations (and drops pooled items at random).
func TestSimulateRecyclesRunBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	red := reduceWorkload(t, core.Workloads()[0], 1)
	insts := trace.Collect(red.NewTrace(diffSeed), 0)
	var cfgs []cpu.Config
	for _, ruu := range []int{32, 64, 96, 128} {
		for _, w := range []int{2, 4, 6, 8} {
			c := cpu.DefaultConfig()
			c.RUUSize, c.LSQSize = ruu, ruu/2
			c.DecodeWidth, c.IssueWidth, c.CommitWidth = w, w, w
			cfgs = append(cfgs, c)
		}
	}
	// One P and no collection while the steady state is measured: a
	// goroutine that moves between Ps can miss sync.Pool's per-P cache,
	// and a collection empties the pools (both documented behaviour).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() { lockstep.Simulate(cfgs, trace.NewSliceSource(insts)) }
	for range 3 { // grows every pooled set to every configuration's working set
		run()
	}
	// What a group still allocates: per configuration its pipeline, the
	// pipeline's five functional-unit pools and its cursor; once, the
	// source, the spool and its cursor list (grown five times to 16),
	// and the driver's pipeline, target, done and result slices.
	const want = 16*7 + 1 + 1 + 5 + 4
	if a := testing.AllocsPerRun(10, run); a > want {
		t.Errorf("a recycled lockstep group allocates %v objects, want at most %d", a, want)
	}
}

// TestSimulateConcurrentGroupsShareNothing: groups running at once on
// several goroutines take their windows and run buffers from the same
// pools, and every group still computes what a serial loop computes.
// Under -race this also checks that no buffer is live in two runs.
func TestSimulateConcurrentGroupsShareNothing(t *testing.T) {
	red := reduceWorkload(t, core.Workloads()[1], 1)
	insts := trace.Collect(red.NewTrace(diffSeed), 0)
	cfgs := diffGrid(t)
	want := make([]cpu.Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = cpu.NewTraceDriven(cfg, trace.NewSliceSource(insts)).Run()
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				lo := (g + round) % 3
				got := lockstep.Simulate(cfgs[lo:], trace.NewSliceSource(insts))
				for i := range got {
					if !reflect.DeepEqual(got[i], want[lo+i]) {
						t.Errorf("goroutine %d round %d: config %d differs from the serial run", g, round, lo+i)
					}
				}
			}
		}()
	}
	wg.Wait()
}
