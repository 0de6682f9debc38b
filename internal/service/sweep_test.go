package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
)

// TestSweepMatchesSerialExactly is the determinism contract of the
// parallel sweep: results must be byte-identical to the serial per-point
// loop the DSE experiment used before the pool existed, in grid order,
// independent of completion order.
func TestSweepMatchesSerialExactly(t *testing.T) {
	g := testGraph(t)
	base := cpu.DefaultConfig()
	points := QuickGrid()
	r := core.ReductionFor(g, 5_000)

	serial := make([]core.Metrics, len(points))
	for i, pt := range points {
		m, err := core.StatSim(pt.Apply(base), g, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = m
	}

	// Each worker count yields a different lockstep plan shape — one
	// group of 9, near-even splits, and (at 8) mostly singleton groups
	// that degrade to the serial path — all of which must be invisible
	// in the results.
	for _, workers := range []int{1, 2, 4, 8} {
		pool := NewPool(workers)
		swept, _, err := Sweep(context.Background(), base, g, points, r, 1, SweepOptions{Pool: pool})
		pool.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(swept) != len(points) {
			t.Fatalf("workers=%d: %d results for %d points", workers, len(swept), len(points))
		}
		for i := range swept {
			if swept[i].Point != points[i] {
				t.Fatalf("workers=%d: result %d is point %v, want %v (order not preserved)",
					workers, i, swept[i].Point, points[i])
			}
			if !reflect.DeepEqual(swept[i].Metrics, serial[i]) {
				t.Fatalf("workers=%d: point %v metrics diverge from serial run", workers, points[i])
			}
		}
	}
}

func TestSweepNilPool(t *testing.T) {
	g := testGraph(t)
	swept, _, err := Sweep(context.Background(), cpu.DefaultConfig(), g,
		QuickGrid()[:2], core.ReductionFor(g, 5_000), 1, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 2 || swept[0].Metrics.IPC() <= 0 {
		t.Errorf("sweep broken: %+v", swept)
	}
}

func TestGridByName(t *testing.T) {
	if pts, err := GridByName("quick"); err != nil || len(pts) != 9 {
		t.Errorf("quick grid: %d points, err %v", len(pts), err)
	}
	if pts, err := GridByName("paper"); err != nil || len(pts) != 1792 {
		t.Errorf("paper grid: %d points, err %v", len(pts), err)
	}
	if _, err := GridByName("nope"); err == nil {
		t.Error("unknown grid accepted")
	}
}

// TestSweepConcurrentIdenticalRequests: two identical /v1/sweep
// requests racing on a cache-dir daemon serialise on their
// fingerprint's journal lock. Both answer byte-identical results,
// exactly one of them resumes every point the other checkpointed, and
// the lock table forgets the fingerprint once both are done.
func TestSweepConcurrentIdenticalRequests(t *testing.T) {
	svc, ts := newTestServerOpts(t, Options{Workers: 2, CacheSize: 4, JobTimeout: time.Minute, CacheDir: t.TempDir()})
	body, err := json.Marshal(SweepRequest{Profile: oracleTestSpec, Grid: "quick", Target: 10_000, RawMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	resps := make([]SweepResponse, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&resps[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	a, _ := json.Marshal(resps[0].Results)
	b, _ := json.Marshal(resps[1].Results)
	if !bytes.Equal(a, b) {
		t.Errorf("identical concurrent sweeps answered differently:\n%s\n%s", a, b)
	}
	n := len(QuickGrid())
	if r0, r1 := resps[0].Resumed, resps[1].Resumed; (r0 == n) == (r1 == n) {
		t.Errorf("resumed = %d and %d, want exactly one of them %d", r0, r1, n)
	}
	if size := svc.sweepLocks.size(); size != 0 {
		t.Errorf("lock table holds %d fingerprints after both sweeps finished, want 0", size)
	}
}

// TestSweepOneAnswerAcrossFrontEnds: one sweep request has one answer,
// whichever front end computes it. On a cache-dir daemon, for the
// delayed- and then the immediate-update profile of one stream, each on
// the default and a non-default configuration, the daemon's
// raw_metrics, the engine with a journal (the statsim sweep call) and a
// serial StatSim loop over the graph the daemon resolved must marshal
// to the same bytes. The two profiles have the same shape, so a
// journal named by shape would answer the second with the first's
// metrics.
func TestSweepOneAnswerAcrossFrontEnds(t *testing.T) {
	svc, ts := newTestServerOpts(t, Options{Workers: 2, CacheSize: 4, JobTimeout: time.Minute, CacheDir: t.TempDir()})
	journals := t.TempDir()
	const target, simSeed = 10_000, 1
	points := QuickGrid()
	ctx := context.Background()
	for _, immediate := range []bool{false, true} {
		spec := ProfileSpec{Workload: "gcc", K: 1, N: 200_000, Seed: 1, Immediate: immediate}
		for _, cfg := range []ConfigSpec{{}, {IFQ: 16, PerfectBpred: true}} {
			name := fmt.Sprintf("immediate=%v config=%+v", immediate, cfg)
			var resp SweepResponse
			req := SweepRequest{Profile: spec, Config: cfg, Points: points, Target: target, SimSeed: simSeed, RawMetrics: true}
			if code, body := postJSON(t, ts.URL+"/v1/sweep", req, &resp); code != http.StatusOK {
				t.Fatalf("%s: sweep status %d: %s", name, code, body)
			}
			daemon := make([]core.Metrics, len(resp.Results))
			for i, row := range resp.Results {
				daemon[i] = *row.Raw
			}

			g, _, _, err := svc.resolveProfile(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			base := cfg.apply(cpu.DefaultConfig())
			red := core.ReductionFor(g, target)
			serial := make([]core.Metrics, len(points))
			for i, p := range points {
				if serial[i], err = core.StatSim(p.Apply(base), g, red, simSeed); err != nil {
					t.Fatal(err)
				}
			}

			id := SweepFingerprint(g, base, points, red, simSeed)
			j, err := OpenSweepJournal(filepath.Join(journals, id+".journal"), id, len(points), nil)
			if err != nil {
				t.Fatal(err)
			}
			results, _, err := Sweep(ctx, base, g, points, red, simSeed, SweepOptions{Journal: j})
			j.Close()
			if err != nil {
				t.Fatal(err)
			}
			engine := make([]core.Metrics, len(results))
			for i, res := range results {
				engine[i] = res.Metrics
			}

			want, _ := json.Marshal(serial)
			for front, got := range map[string][]core.Metrics{"/v1/sweep": daemon, "Sweep with a journal": engine} {
				if b, _ := json.Marshal(got); !bytes.Equal(b, want) {
					t.Errorf("%s: %s differs from the serial StatSim loop", name, front)
				}
			}
		}
	}
}

// size reports how many fingerprints the table holds.
func (t *sweepLockTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.locks)
}
