package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// calibRefMS is the calibration job's time on the reference host, a
// 2-vCPU x86-64 VM in a quiet hour. The declared timings are expressed
// at that speed; changing this constant rescales every one of them.
const calibRefMS = 160

var calibSink atomic.Uint64 // keeps the calibration loops from being optimised away

// calibrate times a fixed job that uses no repository code: an integer
// loop and a cache-missing pointer walk, each on two goroutines (the
// host's two vCPUs), each the median of reps tries. It returns the
// job's time in ms. Neighbours on a shared host slow it in step with
// the benchmark's own work, so the declared timings are divided by it.
func calibrate(reps int) float64 {
	// The walk's table is one cycle through 4Mi entries (16 MiB) in an
	// LCG's full-period order, so each step misses the caches the way
	// graph and trace accesses do. It is garbage once the job ends, so
	// it adds nothing to the peak RSS of the run.
	const size = 1 << 22
	table := make([]uint32, size)
	for j := range table {
		table[j] = uint32((1664525*j + 1013904223) & (size - 1))
	}
	runtime.GC() // no collection of an earlier heap runs during the job
	timed := func(f func(g int) uint64) float64 {
		ts := make([]float64, reps)
		for r := range ts {
			t0 := time.Now()
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					calibSink.Add(f(g))
				}()
			}
			wg.Wait()
			ts[r] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		return median(ts)
	}
	alu := timed(func(int) uint64 {
		x := uint64(1)
		for i := 0; i < 40_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 17
		}
		return x
	})
	walk := timed(func(g int) uint64 {
		j := uint32(g * size / 2)
		for i := 0; i < 600_000; i++ {
			j = table[j]
		}
		return uint64(j)
	})
	return alu + walk
}
