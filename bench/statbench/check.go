package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/service"
	"repro/internal/sfg"
)

// wire renders metrics exactly as statsimd puts them on the wire.
func wire(m core.Metrics) service.SimMetrics {
	return service.SimMetrics{
		IPC:              m.IPC(),
		EPC:              m.EPC(),
		EDP:              m.EDP(),
		Cycles:           m.Cycles,
		Instructions:     m.Instructions,
		MispredictsPerKI: m.Branch.MispredictsPerKI(m.Instructions),
	}
}

// digest is result_digest: SHA-256 over the wire metrics of the first
// n answered ops, in request order. It returns how many ops it covers.
func digest(res *runResult, n int) (string, int) {
	h := sha256.New()
	n = min(n, len(res.ops))
	for i := 0; i < n; i++ {
		data, _ := json.Marshal(res.answers[i]) // plain structs of numbers always marshal
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// pointRef names one answered IPC value: point k of op i.
type pointRef struct{ op, point int }

// samplePoints draws up to want answered points, seeded, from the first
// prefix ops, so the sample depends on the seed and not on run length.
func samplePoints(res *runResult, prefix, want int, seed uint64) []pointRef {
	var all []pointRef
	for i := 0; i < min(prefix, len(res.ops)); i++ {
		for k := range res.answers[i] {
			all = append(all, pointRef{i, k})
		}
	}
	order := perm(len(all), splitmix64(seed^0x5eed))
	out := make([]pointRef, 0, min(want, len(all)))
	for _, j := range order[:min(want, len(all))] {
		out = append(out, all[j])
	}
	return out
}

// graphs loads and freezes profiles on demand, once per key.
type graphs struct {
	mu    sync.Mutex
	store *service.Store
	byKey map[service.ProfileKey]*sfg.Graph
}

// get returns the graph for spec: a warm graph from the server's
// durable store, or, with reprofile, by profiling the stream in process.
func (gs *graphs) get(spec service.ProfileSpec, reprofile bool) (*sfg.Graph, error) {
	key := service.ProfileKey{Workload: spec.Workload, K: spec.K, N: spec.N, Seed: spec.Seed}
	gs.mu.Lock()
	g, ok := gs.byKey[key]
	gs.mu.Unlock()
	if ok {
		return g, nil
	}
	var err error
	if reprofile {
		w, werr := core.LoadWorkload(spec.Workload)
		if werr != nil {
			return nil, werr
		}
		g, err = core.Profile(cpu.DefaultConfig(), w.Stream(spec.Seed, 0, spec.N), core.ProfileOptions{K: spec.K})
	} else {
		g, err = gs.store.Load(key)
	}
	if err != nil {
		return nil, err
	}
	g.Freeze()
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if prev, ok := gs.byKey[key]; ok {
		return prev, nil
	}
	gs.byKey[key] = g
	return g, nil
}

// checkResult is the outcome of recomputing the sample in process.
type checkResult struct {
	checked int
	wrong   []mismatch
	cycles  uint64 // simulated cycles over the sample
	insts   uint64 // simulated instructions over the sample
}

type mismatch struct {
	ref pointRef
	msg string
}

// checkSample recomputes each sampled point with core.StatSim (after
// core.Profile for a cold pair's fresh profile) and compares it field
// for field with the answer statsimd gave.
func checkSample(res *runResult, refs []pointRef, storeDir string) (checkResult, error) {
	store, err := service.NewStore(storeDir, nil)
	if err != nil {
		return checkResult{}, err
	}
	gs := &graphs{store: store, byKey: make(map[service.ProfileKey]*sfg.Graph)}
	got := make([]core.Metrics, len(refs))
	err = parallel(len(refs), 2, func(s int) error {
		p := pointOf(res.ops[refs[s].op], refs[s].point)
		g, err := gs.get(p.spec, res.ops[refs[s].op].Profile != nil)
		if err != nil {
			return err
		}
		got[s], err = core.StatSim(p.cfg, g, core.ReductionFor(g, p.target), p.simSeed)
		return err
	})
	if err != nil {
		return checkResult{}, err
	}
	cr := checkResult{checked: len(refs)}
	for s, ref := range refs {
		want := wire(got[s])
		if ans := res.answers[ref.op][ref.point]; ans != want {
			cr.wrong = append(cr.wrong, mismatch{ref, fmt.Sprintf("op %d point %d: statsimd %+v, recomputed %+v", ref.op, ref.point, ans, want)})
		}
		cr.cycles += got[s].Cycles
		cr.insts += got[s].Instructions
	}
	return cr, nil
}

// ipcError is ipc_err_pct: statistical simulation's mean absolute IPC
// error against execution-driven simulation (core.Reference) over a
// fixed accuracy set, the ten programs at profile seed 1 on the baseline
// configuration — what statsimd answers for a default /v1/simulate of
// each program. The set does not depend on --seed, so the number moves
// only when the model does.
func ipcError(sc scale) (float64, error) {
	programs := allPrograms()
	errs := make([]float64, len(programs))
	err := parallel(len(programs), 2, func(i int) error {
		w, err := core.LoadWorkload(programs[i])
		if err != nil {
			return err
		}
		cfg := cpu.DefaultConfig()
		g, err := core.Profile(cfg, w.Stream(1, 0, sc.ValidateN), core.ProfileOptions{K: 1})
		if err != nil {
			return err
		}
		ss, err := core.StatSim(cfg, g, core.ReductionFor(g, sc.SimTarget), 1)
		if err != nil {
			return err
		}
		eds := core.Reference(cfg, w.Stream(1, 0, sc.ValidateN))
		errs[i] = math.Abs(ss.IPC()-eds.IPC()) / eds.IPC()
		return nil
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	return 100 * sum / float64(len(errs)), nil
}

// parallel runs fn(0..n-1) on up to workers goroutines and returns the
// first error.
func parallel(n, workers int, fn func(i int) error) error {
	var (
		next     int
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
