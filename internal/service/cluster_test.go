package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sfg"
)

var clusterTestKey = ProfileKey{Workload: "vpr", K: 1, N: 20_000, Seed: 1}
var clusterTestSpec = ProfileSpec{Workload: "vpr", K: 1, N: 20_000, Seed: 1}

// fakeCluster is a scriptable service.Cluster for white-box handler
// tests. SweepPending delegates everything back to job.Local — the
// routing decision, not remote execution, is what these tests pin down.
type fakeCluster struct {
	graph      *sfg.Graph
	fetchPeer  string
	fetchErr   error
	fetchCalls atomic.Uint64
	offerCalls atomic.Uint64
	sweepCalls atomic.Uint64
}

func (f *fakeCluster) FetchGraph(ctx context.Context, key ProfileKey) (*sfg.Graph, string, error) {
	f.fetchCalls.Add(1)
	if f.fetchErr != nil {
		return nil, "", f.fetchErr
	}
	if f.graph == nil {
		return nil, "", ErrNoRemoteGraph
	}
	return f.graph, f.fetchPeer, nil
}

func (f *fakeCluster) OfferGraph(ctx context.Context, key ProfileKey, g *sfg.Graph) {
	f.offerCalls.Add(1)
}

func (f *fakeCluster) SweepPending(ctx context.Context, job ClusterSweepJob) error {
	f.sweepCalls.Add(1)
	return job.Local(ctx, job.Pending)
}

func (f *fakeCluster) Status() ClusterStatus { return ClusterStatus{Self: "fake"} }
func (f *fakeCluster) Stats() ClusterStats   { return ClusterStats{} }

func (f *fakeCluster) PeerMetrics(ctx context.Context, peer string) ([]byte, error) {
	return nil, errors.New("fake cluster has no peers")
}

func TestCachePeekAndPut(t *testing.T) {
	c := NewGraphCache(2)
	if _, ok := c.Peek(clusterTestKey); ok {
		t.Fatal("peek hit on empty cache")
	}
	g := testGraph(t)
	c.Put(clusterTestKey, g)
	got, ok := c.Peek(clusterTestKey)
	if !ok || got != g {
		t.Fatal("put graph not peekable")
	}
	// Peek must not disturb the hit/miss accounting the request path
	// owns.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("peek/put touched lookup stats: %+v", st)
	}
	// Put respects capacity.
	other := clusterTestKey
	for i := uint64(2); i <= 4; i++ {
		other.Seed = i
		c.Put(other, g)
	}
	if st := c.Stats(); st.Size > 2 || st.Evictions == 0 {
		t.Errorf("put did not evict at capacity: %+v", st)
	}
	// nil graphs are refused, not cached.
	c.Put(clusterTestKey, nil)
}

func TestClusterFetchOfferHandlers(t *testing.T) {
	svc, ts := newTestServerOpts(t, Options{Workers: 2, CacheSize: 4, JobTimeout: time.Minute, CacheDir: t.TempDir()})

	// Fetch before anything is resident: a clean 404, never profiling.
	fetchBody, _ := json.Marshal(ClusterFetchRequest{Key: clusterTestKey})
	resp, err := http.Post(ts.URL+"/v1/cluster/fetch", "application/json", bytes.NewReader(fetchBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fetch of absent profile: %d", resp.StatusCode)
	}
	if svc.clusterServed.graphsMissing.Load() != 1 {
		t.Errorf("missing fetch not counted")
	}

	// Offer a valid envelope: it lands in cache and store.
	g := testGraph(t)
	env, err := EncodeProfileEnvelope(clusterTestKey, g)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/cluster/offer", "application/octet-stream", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("offer rejected: %d", resp.StatusCode)
	}
	if _, ok := svc.cache.Peek(clusterTestKey); !ok {
		t.Error("offered graph not in cache")
	}
	if g2, err := svc.store.Load(clusterTestKey); err != nil || g2 == nil {
		t.Errorf("offered graph not persisted: %v", err)
	}

	// Fetch now round-trips the same envelope, CRC-checked end to end.
	resp, err = http.Post(ts.URL+"/v1/cluster/fetch", "application/json", bytes.NewReader(fetchBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch after offer: %d", resp.StatusCode)
	}
	key, got, err := DecodeProfileEnvelope(body, &clusterTestKey)
	if err != nil {
		t.Fatalf("served envelope invalid: %v", err)
	}
	if key != clusterTestKey || got.TotalInstructions != g.TotalInstructions {
		t.Errorf("served graph differs")
	}

	// A corrupted offer is rejected wholesale.
	bad := append([]byte(nil), env...)
	bad[len(bad)/2] ^= 0xFF
	resp, err = http.Post(ts.URL+"/v1/cluster/offer", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt offer accepted: %d", resp.StatusCode)
	}
	if svc.clusterServed.offersRejected.Load() != 1 {
		t.Errorf("rejected offer not counted")
	}
}

// TestClusterOfferReplacesOlderVersionFile: an offered replica skips the
// save only when a current-version file is already stored. A file an
// earlier build wrote is a miss to Load, so the replica replaces it.
func TestClusterOfferReplacesOlderVersionFile(t *testing.T) {
	svc, ts := newTestServerOpts(t, Options{Workers: 2, CacheSize: 4, JobTimeout: time.Minute, CacheDir: t.TempDir()})
	if err := os.WriteFile(svc.store.Path(clusterTestKey), envelopeV1(t, clusterTestKey), 0o644); err != nil {
		t.Fatal(err)
	}
	env, err := EncodeProfileEnvelope(clusterTestKey, testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/cluster/offer", "application/octet-stream", bytes.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("offer %d rejected: %d", i, resp.StatusCode)
		}
		// The first offer replaces the version-1 file; the second
		// finds a current-version file and leaves it alone.
		if got := svc.store.Stats().Saves; got != 1 {
			t.Errorf("after offer %d: %d saves, want 1", i, got)
		}
	}
	if _, err := svc.store.Load(clusterTestKey); err != nil {
		t.Errorf("replica did not replace the version-1 file: %v", err)
	}
}

func TestClusterStatusUnclustered(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unclustered status: %d, want 404", resp.StatusCode)
	}
}

// TestResolveProfileRemoteTier: with a cluster attached, a cache+store
// miss consults the peers before paying for profiling.
func TestResolveProfileRemoteTier(t *testing.T) {
	g := testGraph(t)
	fake := &fakeCluster{graph: g, fetchPeer: "http://peer-a:8417"}
	svc, ts := newTestServer(t)
	svc.SetCluster(fake)

	var sim SimulateResponse
	if code, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Profile: clusterTestSpec, Target: 5_000}, &sim); code != 200 {
		t.Fatalf("simulate: %d %s", code, body)
	}
	if fake.fetchCalls.Load() != 1 {
		t.Errorf("cluster consulted %d times, want 1", fake.fetchCalls.Load())
	}
	// The remote graph short-circuits profiling entirely.
	if snap := svc.metrics.Snapshot(svc.cache, svc.pool); snap.Stages["profile"].Count != 0 {
		t.Errorf("profiled locally despite remote hit: %+v", snap.Stages)
	}
	// The flight recorder credits the serving peer.
	var sawPeer bool
	for _, ev := range svc.flight.Recent(0) {
		if ev.Peer == "http://peer-a:8417" {
			sawPeer = true
		}
	}
	if !sawPeer {
		t.Error("request event does not name the serving peer")
	}

	// When no peer holds it, profiling proceeds — and the fresh graph
	// is offered back to the owners.
	fake2 := &fakeCluster{fetchErr: ErrNoRemoteGraph}
	svc2, ts2 := newTestServer(t)
	svc2.SetCluster(fake2)
	if code, body := postJSON(t, ts2.URL+"/v1/simulate", SimulateRequest{Profile: clusterTestSpec, Target: 5_000}, nil); code != 200 {
		t.Fatalf("simulate with cluster miss: %d %s", code, body)
	}
	if fake2.offerCalls.Load() != 1 {
		t.Errorf("fresh profile offered %d times, want 1", fake2.offerCalls.Load())
	}
}

// TestSweepClusteredDelegation: a clustered sweep routes pending points
// through the Cluster, a fanout-marked one never does.
func TestSweepClusteredDelegation(t *testing.T) {
	fake := &fakeCluster{}
	svc, ts := newTestServer(t)
	svc.SetCluster(fake)

	req := SweepRequest{Profile: clusterTestSpec, Grid: "quick", Target: 5_000, RawMetrics: true}
	var resp SweepResponse
	if code, body := postJSON(t, ts.URL+"/v1/sweep", req, &resp); code != 200 {
		t.Fatalf("clustered sweep: %d %s", code, body)
	}
	if fake.sweepCalls.Load() != 1 {
		t.Fatalf("cluster SweepPending called %d times, want 1", fake.sweepCalls.Load())
	}
	if len(resp.Results) != 9 {
		t.Fatalf("results: %d", len(resp.Results))
	}
	for i, row := range resp.Results {
		if row.Raw == nil {
			t.Fatalf("row %d missing raw metrics", i)
		}
		// Raw must agree with the wire metrics it sits beside.
		if wireMetrics(*row.Raw) != row.Metrics {
			t.Fatalf("row %d raw/wire metrics disagree", i)
		}
	}

	// Same request marked as a coordinator fanout: computed locally.
	buf, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(ClusterFanoutHeader, "1")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != 200 {
		t.Fatalf("fanout sweep: %d", hresp.StatusCode)
	}
	if fake.sweepCalls.Load() != 1 {
		t.Error("fanout sub-sweep was fanned out again")
	}
}

// TestSweepClientDisconnectAbortsQueuedPoints (satellite): when the
// requesting client goes away, queued design points must not keep
// burning the pool — the context check at the job boundary stops the
// sweep promptly.
func TestSweepClientDisconnectAbortsQueuedPoints(t *testing.T) {
	in := fault.New(3)
	// Every point takes ≥60ms: with one worker, a 9-point quick grid
	// would hold the pool ~540ms+ if cancellation did not bite.
	in.Set(SiteSweepJob, fault.Rule{Prob: 1, Times: 100, Delay: 60 * time.Millisecond})
	svc, ts := newTestServerOpts(t, Options{Workers: 1, CacheSize: 4, JobTimeout: time.Minute, Faults: in})

	// Warm the profile so the sweep's time is all points.
	if code, body := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{ProfileSpec: clusterTestSpec}, nil); code != 200 {
		t.Fatalf("profile: %d %s", code, body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	buf, _ := json.Marshal(SweepRequest{Profile: clusterTestSpec, Grid: "quick", Target: 5_000})
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Let the sweep get into its first slow point, then vanish.
	time.Sleep(100 * time.Millisecond)
	cancel()
	wg.Wait()

	// Give the in-flight point a moment to finish, then require the
	// pool to be idle long before 9 points' worth of delay.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := svc.pool.Stats()
		if st.InFlight == 0 && st.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool still busy after disconnect: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fired := in.Fired(SiteSweepJob); fired >= 9 {
		t.Errorf("all %d points ran despite client disconnect", fired)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	p := RetryPolicy{Attempts: 5, BaseDelay: time.Nanosecond}
	calls := 0
	sentinel := errors.New("definitive no")
	err := p.Run(context.Background(), nil, func() error {
		calls++
		return Permanent(sentinel)
	})
	if calls != 1 {
		t.Errorf("permanent error retried: %d calls", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("cause lost through Permanent: %v", err)
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) must stay nil")
	}
}

func TestTargetForReductionInvertsExactly(t *testing.T) {
	g := testGraph(t)
	for _, target := range []uint64{1, 100, 5_000, 12_345, g.TotalInstructions, g.TotalInstructions * 3} {
		red := core.ReductionFor(g, target)
		back := targetForReduction(g, red)
		if got := core.ReductionFor(g, back); got != red {
			t.Errorf("target %d: reduction %d re-derives as %d via wire target %d", target, red, got, back)
		}
	}
}
