package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/service"
)

// env is one statsimd life: an in-process server with a fresh cache dir
// behind a loopback listener, and the one client every caller shares.
type env struct {
	dir    string
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

// startEnv starts a server the way the daemon would run on a 2-core
// node: two workers, a durable cache dir, the paper-grid sweep cap, and
// a graph cache of cacheSize profiles.
func startEnv(cacheSize int) (*env, error) {
	dir, err := os.MkdirTemp("", "statbench-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{Workers: 2, CacheSize: cacheSize, CacheDir: dir, MaxSweepPoints: 1792})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &env{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return e, nil
}

// close stops the listener, drains the server and deletes its cache dir.
func (e *env) close() {
	e.ts.Close()
	e.client.CloseIdleConnections()
	e.srv.Close(context.Background())
	os.RemoveAll(e.dir)
}

// call sends one request (a GET when body is nil) and decodes the
// reply into out. Anything but HTTP 200 with a decodable body is an
// error.
func (e *env) call(ctx context.Context, path string, body, out any) error {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		method, rd = http.MethodPost, bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.ts.URL+path, rd)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: decoding reply: %w", path, err)
	}
	return nil
}

// do runs one op and returns its IPC answers, checking that every reply
// answers what was asked: the same profile, and for a sweep the same
// points in the same order.
func (e *env) do(ctx context.Context, o op) ([]service.SimMetrics, error) {
	if o.Profile != nil {
		var pr service.ProfileResponse
		if err := e.call(ctx, "/v1/profile", o.Profile, &pr); err != nil {
			return nil, err
		}
		if pr.Key.Workload != o.Profile.Workload || pr.Key.Seed != o.Profile.Seed || pr.TotalInstructions == 0 {
			return nil, fmt.Errorf("profile reply for %+v answers %+v", o.Profile.ProfileSpec, pr.Key)
		}
	}
	if o.Simulate != nil {
		var sr service.SimulateResponse
		if err := e.call(ctx, "/v1/simulate", o.Simulate, &sr); err != nil {
			return nil, err
		}
		if sr.Key.Workload != o.Simulate.Profile.Workload || sr.Metrics.Instructions == 0 {
			return nil, fmt.Errorf("simulate reply for %s answers %s with %d instructions",
				o.Simulate.Profile.Workload, sr.Key.Workload, sr.Metrics.Instructions)
		}
		return []service.SimMetrics{sr.Metrics}, nil
	}
	var sw service.SweepResponse
	if err := e.call(ctx, "/v1/sweep", o.Sweep, &sw); err != nil {
		return nil, err
	}
	if sw.Points != len(o.grid) || len(sw.Results) != len(o.grid) {
		return nil, fmt.Errorf("sweep of %d points answered %d (%d rows)", len(o.grid), sw.Points, len(sw.Results))
	}
	out := make([]service.SimMetrics, len(sw.Results))
	for k, row := range sw.Results {
		if row.Point != o.grid[k] || row.Estimated {
			return nil, fmt.Errorf("sweep row %d answers %v (estimated %t), asked %v", k, row.Point, row.Estimated, o.grid[k])
		}
		out[k] = row.Metrics
	}
	return out, nil
}

// runResult is what one timed run observed, indexed by op number.
type runResult struct {
	ops     []op
	answers [][]service.SimMetrics // nil for a failed op
	lat     []time.Duration
	errs    []error
	wall    time.Duration // first send to last reply
}

// drive runs seq as a closed loop: each of the workload's clients sends
// the next op of the sequence, waits for the reply, and repeats. Once
// dur has passed, the ops left in the current round are still sent, so
// a run always answers whole rounds; ops in flight finish and count.
func drive(ctx context.Context, e *env, seq *sequence, dur time.Duration) *runResult {
	type record struct {
		op  op
		ans []service.SimMetrics
		lat time.Duration
		err error
	}
	var (
		mu         sync.Mutex
		next, stop = 0, -1 // stop: the op count to end at, once the deadline has passed
		recs       = make(map[int]record)
		wg         sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop < 0 && !time.Now().Before(deadline) {
			stop = (next + seq.wl.round - 1) / seq.wl.round * seq.wl.round
		}
		if stop >= 0 && next >= stop || ctx.Err() != nil {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < seq.wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				o := seq.op(i)
				t0 := time.Now()
				ans, err := e.do(ctx, o)
				rec := record{op: o, ans: ans, lat: time.Since(t0), err: err}
				mu.Lock()
				recs[i] = rec
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res := &runResult{wall: time.Since(start)}
	for i := 0; i < len(recs); i++ {
		r := recs[i]
		res.ops = append(res.ops, r.op)
		res.answers = append(res.answers, r.ans)
		res.lat = append(res.lat, r.lat)
		res.errs = append(res.errs, r.err)
	}
	return res
}
