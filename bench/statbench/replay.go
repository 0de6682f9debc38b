package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/lockstep"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/resultstore"
	"repro/internal/service"
	"repro/internal/sfg"
	"repro/internal/surrogate"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The traced replay re-runs a timed run's op sequence by calling each
// layer's public functions directly, in the order and with the
// concurrency statsimd uses, with one span around each call. What the
// HTTP run spends beyond the replay's wall time — the transport, the
// handlers, the pool and the daemon's own telemetry — is the ladder's
// unattributed share.

// replayer holds one replay's state: a copy of the server's durable
// state as set-up left it, the spans, and the counts spans do not carry.
type replayer struct {
	rec    *recorder
	rs     *resultstore.Store
	store  *service.Store
	model  *surrogate.Model
	graphs *graphs

	cycles        atomic.Int64 // simulated cycles under "cpu" spans
	groups        atomic.Int64 // lockstep groups planned
	groupPoints   atomic.Int64 // points in those groups
	profiled      atomic.Int64 // graphs profiled by cold pairs
	profiledNodes atomic.Int64 // their summed node counts
	bufs          sync.Pool    // *[]trace.DynInst drain buffers
}

// resultsSubdir is where statsimd keeps its result store under the
// cache dir (the service's oracleSubdir).
const resultsSubdir = "results"

// newReplayer opens the durable state under dir the way statsimd opens
// its cache dir: the result store, whose records warm the surrogate
// model, and the profile store with its sweep journals.
func newReplayer(dir string, spans int) (*replayer, error) {
	rs, err := resultstore.Open(filepath.Join(dir, resultsSubdir))
	if err != nil {
		return nil, err
	}
	store, err := service.NewStore(dir, nil)
	if err != nil {
		rs.Close()
		return nil, err
	}
	r := &replayer{rec: newRecorder(spans), rs: rs, store: store, model: surrogate.New(0),
		graphs: &graphs{store: store, byKey: make(map[service.ProfileKey]*sfg.Graph)}}
	rs.Range(func(k resultstore.Key, m core.Metrics) bool {
		r.model.Add(k.Context(), features(k), m.IPC(), m.EPC())
		return true
	})
	return r, nil
}

func (r *replayer) close() { r.rs.Close() }

func features(k resultstore.Key) surrogate.Features {
	d := k.Dims
	return surrogate.FromDims(d.RUU, d.LSQ, d.Decode, d.Issue, d.Commit, d.IFQ)
}

// resultKey is the result-store identity statsimd derives for one
// simulation (the service's oracleKey).
func resultKey(spec service.ProfileSpec, cfg cpu.Config, red, simSeed uint64) resultstore.Key {
	return resultstore.Key{
		ConfigFP: obs.Fingerprint(cfg),
		Workload: spec.Workload, K: spec.K, N: spec.N, Seed: spec.Seed,
		Red: red, SimSeed: simSeed,
		Dims: resultstore.Dims{RUU: cfg.RUUSize, LSQ: cfg.LSQSize, Decode: cfg.DecodeWidth,
			Issue: cfg.IssueWidth, Commit: cfg.CommitWidth, IFQ: cfg.IFQSize},
	}
}

// spanBudget bounds the spans a replay of ops can record.
func spanBudget(ops []op) int {
	n := 16
	for _, o := range ops {
		n += 16 + 7*o.points()
	}
	return n
}

// drain materialises src into a pooled buffer, so the layer that
// produced the stream is timed apart from the one that consumes it.
func (r *replayer) drain(src trace.Source) *[]trace.DynInst {
	bp, _ := r.bufs.Get().(*[]trace.DynInst)
	if bp == nil {
		bp = new([]trace.DynInst)
	}
	bs, buf := trace.Batched(src), (*bp)[:0]
	for {
		buf = slices.Grow(buf, trace.DefaultBatchSize)
		n := bs.NextBatch(buf[len(buf) : len(buf)+trace.DefaultBatchSize])
		if n == 0 {
			*bp = buf
			return bp
		}
		buf = buf[:len(buf)+n]
	}
}

// roundTrip records one message crossing the wire: the sender's encode
// and the receiver's decode.
func (r *replayer) roundTrip(parent, req int32, v, into any) error {
	var (
		data []byte
		err  error
	)
	r.rec.call("wire.encode", parent, req, func() int64 {
		data, err = json.Marshal(v)
		return int64(len(data))
	})
	if err != nil {
		return err
	}
	r.rec.call("wire.decode", parent, req, func() int64 {
		err = json.Unmarshal(data, into)
		return int64(len(data))
	})
	return err
}

// replay runs res's answered ops with the given number of clients and
// returns its wall time. Every recomputed answer must equal the one
// statsimd gave.
func (r *replayer) replay(res *runResult, clients int) (time.Duration, error) {
	var idx []int
	for i, err := range res.errs {
		if err == nil {
			idx = append(idx, i)
		}
	}
	// statsimd holds warm graphs in memory; load them before the clock
	// starts. A cold pair profiles its own.
	for _, i := range idx {
		if o := res.ops[i]; o.Profile == nil {
			if _, err := r.graphs.get(pointOf(o, 0).spec, false); err != nil {
				return 0, err
			}
		}
	}
	start := time.Now()
	err := parallel(len(idx), clients, func(k int) error {
		i := idx[k]
		return r.op(int32(i), res.ops[i], res.answers[i])
	})
	return time.Since(start), err
}

func (r *replayer) op(req int32, o op, want []service.SimMetrics) error {
	root := r.rec.start("op", -1, req)
	defer r.rec.end(root, int64(o.points()))
	var (
		got []core.Metrics
		err error
	)
	switch {
	case o.Sweep != nil:
		got, err = r.sweep(root, req, o)
	default:
		var g *sfg.Graph
		if o.Profile != nil {
			if g, err = r.profile(root, req, o.Profile.ProfileSpec); err != nil {
				return err
			}
		}
		got, err = r.simulate(root, req, o, g)
	}
	if err != nil {
		return fmt.Errorf("replaying op %d: %w", req, err)
	}
	for k := range want {
		if wire(got[k]) != want[k] {
			return fmt.Errorf("replay of op %d point %d computed %+v, statsimd answered %+v", req, k, wire(got[k]), want[k])
		}
	}
	return nil
}

// profile is a /v1/profile cache miss: functional execution, profiling
// (and the freeze the cache applies), and the durable save.
func (r *replayer) profile(root, req int32, spec service.ProfileSpec) (*sfg.Graph, error) {
	if err := r.roundTrip(root, req, service.ProfileRequest{ProfileSpec: spec}, &service.ProfileRequest{}); err != nil {
		return nil, err
	}
	var (
		w   core.Workload
		bp  *[]trace.DynInst
		g   *sfg.Graph
		err error
	)
	r.rec.call("program", root, req, func() int64 {
		if w, err = core.LoadWorkload(spec.Workload); err != nil {
			return 0
		}
		bp = r.drain(w.Stream(spec.Seed, 0, spec.N))
		return int64(len(*bp))
	})
	if err != nil {
		return nil, err
	}
	defer r.bufs.Put(bp)
	r.rec.call("sfg", root, req, func() int64 {
		g, err = core.Profile(cpu.DefaultConfig(), trace.NewSliceSource(*bp), core.ProfileOptions{K: spec.K})
		if err == nil {
			g.Freeze()
		}
		return int64(len(*bp))
	})
	if err != nil {
		return nil, err
	}
	r.profiled.Add(1)
	r.profiledNodes.Add(int64(g.NumNodes()))
	key := service.ProfileKey{Workload: spec.Workload, K: spec.K, N: spec.N, Seed: spec.Seed}
	r.rec.call("store.save", root, req, func() int64 {
		err = r.store.Save(key, g)
		return 1
	})
	if err != nil {
		return nil, err
	}
	resp := service.ProfileResponse{Key: key, Nodes: g.NumNodes(), Edges: g.NumEdges(), TotalInstructions: g.TotalInstructions}
	return g, r.roundTrip(root, req, resp, &service.ProfileResponse{})
}

// simulate is a /v1/simulate request: a result-store lookup, then on a
// miss reduction, generation, the timing kernel and the store append.
func (r *replayer) simulate(root, req int32, o op, g *sfg.Graph) ([]core.Metrics, error) {
	if err := r.roundTrip(root, req, o.Simulate, &service.SimulateRequest{}); err != nil {
		return nil, err
	}
	p := pointOf(o, 0)
	if g == nil {
		var err error
		if g, err = r.graphs.get(p.spec, false); err != nil {
			return nil, err
		}
	}
	red := core.ReductionFor(g, p.target)
	var (
		key resultstore.Key
		m   core.Metrics
		hit bool
		err error
	)
	r.rec.call("resultstore.get", root, req, func() int64 {
		key = resultKey(p.spec, p.cfg, red, p.simSeed)
		m, hit = r.rs.Get(key)
		return 1
	})
	if !hit {
		var rd *synth.Reduced
		r.rec.call("synth.reduce", root, req, func() int64 {
			rd, err = synth.Reduce(g, synth.Options{R: red, Seed: p.simSeed})
			return 1
		})
		if err != nil {
			return nil, err
		}
		bp := r.generate(root, req, rd, p.simSeed)
		r.rec.call("cpu", root, req, func() int64 {
			m = core.SimulateTrace(p.cfg, trace.NewSliceSource(*bp))
			r.cycles.Add(int64(m.Cycles))
			return int64(m.Instructions)
		})
		r.bufs.Put(bp)
		if err := r.learn(root, req, key, m); err != nil {
			return nil, err
		}
	}
	resp := service.SimulateResponse{Key: service.ProfileKey{Workload: p.spec.Workload, K: p.spec.K, N: p.spec.N, Seed: p.spec.Seed},
		ProfileCached: o.Profile == nil, Reduction: red, Metrics: wire(m)}
	return []core.Metrics{m}, r.roundTrip(root, req, resp, &service.SimulateResponse{})
}

func (r *replayer) generate(parent, req int32, rd *synth.Reduced, seed uint64) *[]trace.DynInst {
	var bp *[]trace.DynInst
	r.rec.call("synth.gen", parent, req, func() int64 {
		bp = r.drain(rd.NewTrace(seed))
		return int64(len(*bp))
	})
	return bp
}

// learn is what statsimd does with a freshly simulated result: append
// it to the result store (fsync included) and train the surrogate.
func (r *replayer) learn(parent, req int32, key resultstore.Key, m core.Metrics) error {
	var err error
	r.rec.call("resultstore.put", parent, req, func() int64 {
		err = r.rs.Put(key, m)
		return 1
	})
	r.rec.call("surrogate.add", parent, req, func() int64 {
		r.model.Add(key.Context(), features(key), m.IPC(), m.EPC())
		return 1
	})
	return err
}

// sweep is a /v1/sweep request: fingerprint and open the journal,
// resume what it holds, serve store hits (journaling each), and simulate
// the rest in lockstep groups spread over two workers, each finished
// point going to the store and the journal.
func (r *replayer) sweep(root, req int32, o op) ([]core.Metrics, error) {
	s, pts := o.Sweep, o.grid
	if err := r.roundTrip(root, req, s, &service.SweepRequest{}); err != nil {
		return nil, err
	}
	g, err := r.graphs.get(s.Profile, false)
	if err != nil {
		return nil, err
	}
	p0 := pointOf(o, 0)
	base, red := cpu.DefaultConfig(), core.ReductionFor(g, p0.target)
	var (
		id string
		j  *service.SweepJournal
	)
	r.rec.call("journal.fingerprint", root, req, func() int64 {
		id = service.SweepFingerprint(g, base, pts, red, p0.simSeed)
		return int64(len(pts))
	})
	r.rec.call("journal.open", root, req, func() int64 {
		j, err = service.OpenSweepJournal(r.store.JournalPath(id), id, len(pts), nil)
		if err != nil {
			return 0
		}
		return int64(j.Resumed())
	})
	if err != nil {
		return nil, err
	}
	defer j.Close()

	results := make([]core.Metrics, len(pts))
	served := make([]string, len(pts))
	done := j.Done()
	var pending []lockstep.Point
	key := lockstep.Key{K: g.K, R: red, Seed: p0.simSeed}
	for k := range pts {
		if m, ok := done[k]; ok {
			results[k] = m
			continue
		}
		var (
			rk  resultstore.Key
			m   core.Metrics
			hit bool
		)
		r.rec.call("resultstore.get", root, req, func() int64 {
			rk = resultKey(s.Profile, pts[k].Apply(base), red, p0.simSeed)
			m, hit = r.rs.Get(rk)
			return 1
		})
		if !hit {
			pending = append(pending, lockstep.Point{Key: key, Index: k})
			continue
		}
		results[k], served[k] = m, service.ServedFromStore
		r.rec.call("journal.append", root, req, func() int64 {
			err = j.Append(k, m)
			return 1
		})
		if err != nil {
			return nil, err
		}
	}

	plan := lockstep.Plan(pending, lockstep.Options{Parallel: 2})
	r.groups.Add(int64(len(plan)))
	r.groupPoints.Add(int64(len(pending)))
	err = parallel(len(plan), 2, func(gi int) error {
		idx := plan[gi].Indices
		cfgs := make([]cpu.Config, len(idx))
		for k, i := range idx {
			cfgs[k] = pts[i].Apply(base)
		}
		var (
			rd  *synth.Reduced
			err error
		)
		r.rec.call("synth.reduce", root, req, func() int64 {
			rd, err = synth.Reduce(g, synth.Options{R: red, Seed: p0.simSeed})
			return 1
		})
		if err != nil {
			return err
		}
		bp := r.generate(root, req, rd, p0.simSeed)
		ms := make([]core.Metrics, len(idx))
		if len(idx) == 1 {
			r.rec.call("cpu", root, req, func() int64 {
				ms[0] = core.SimulateTrace(cfgs[0], trace.NewSliceSource(*bp))
				r.cycles.Add(int64(ms[0].Cycles))
				return int64(ms[0].Instructions)
			})
		} else {
			r.rec.call("lockstep", root, req, func() int64 {
				for k, res := range lockstep.Simulate(cfgs, trace.NewSliceSource(*bp)) {
					ms[k] = core.Metrics{Result: res, Power: power.Estimate(cfgs[k], res)}
				}
				return int64(len(idx) * len(*bp))
			})
		}
		r.bufs.Put(bp)
		for k, i := range idx {
			results[i] = ms[k]
			if err := r.learn(root, req, resultKey(s.Profile, cfgs[k], red, p0.simSeed), ms[k]); err != nil {
				return err
			}
			r.rec.call("journal.append", root, req, func() int64 {
				err = j.Append(i, ms[k])
				return 1
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	resp := service.SweepResponse{Key: service.ProfileKey{Workload: s.Profile.Workload, K: s.Profile.K, N: s.Profile.N, Seed: s.Profile.Seed},
		ProfileCached: true, Points: len(results), Resumed: j.Resumed(), Results: make([]service.SweepRow, len(results))}
	for k, m := range results {
		resp.Results[k] = service.SweepRow{Point: pts[k], Metrics: wire(m), Served: served[k]}
		if served[k] != "" {
			resp.FromStore++
		}
		if resp.Results[k].Metrics.EDP < resp.Results[resp.Best].Metrics.EDP {
			resp.Best = k
		}
	}
	return results, r.roundTrip(root, req, resp, &service.SweepResponse{})
}

// writeSpans writes the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// copyTree copies the regular files under src to dst, preserving the
// layout: the snapshot of set-up state the replay starts from.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
