package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sfg"
)

func testGraph(t testing.TB) *sfg.Graph {
	t.Helper()
	w, err := core.LoadWorkload("vpr")
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Profile(cpu.DefaultConfig(), w.Stream(1, 0, 20_000), core.ProfileOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var testKey = service.ProfileKey{Workload: "vpr", K: 1, N: 20_000, Seed: 1}

// fakePeer is a scriptable stand-in for a remote statsimd: its healthz
// status, fetch behaviour and latency are mutable mid-test.
type fakePeer struct {
	ts           *httptest.Server
	healthStatus atomic.Int32
	fetchDelay   atomic.Int64 // nanoseconds
	envelope     atomic.Value // []byte; nil/empty = 404
	fetches      atomic.Uint64
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	p := &fakePeer{}
	p.healthStatus.Store(http.StatusOK)
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(int(p.healthStatus.Load()))
		case "/v1/cluster/fetch":
			p.fetches.Add(1)
			if d := time.Duration(p.fetchDelay.Load()); d > 0 {
				select {
				case <-time.After(d):
				case <-r.Context().Done():
					return
				}
			}
			env, _ := p.envelope.Load().([]byte)
			if len(env) == 0 {
				w.WriteHeader(http.StatusNotFound)
				io.WriteString(w, `{"error":"not resident"}`)
				return
			}
			w.Write(env)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	t.Cleanup(p.ts.Close)
	return p
}

func testCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Self == "" {
		cfg.Self = "http://self.invalid:1"
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPartitionDeterministic(t *testing.T) {
	pending := []int{0, 1, 2, 3, 4, 5, 6, 8, 11}
	execs := []string{"a", "b", "c"}
	first := partitionIndices(pending, execs)
	for round := 0; round < 5; round++ {
		again := partitionIndices(pending, execs)
		for e := range execs {
			if len(again[e]) != len(first[e]) {
				t.Fatalf("partition not deterministic: %v vs %v", again, first)
			}
			for k := range again[e] {
				if again[e][k] != first[e][k] {
					t.Fatalf("partition not deterministic: %v vs %v", again, first)
				}
			}
		}
	}
	// Every index lands on exactly one executor.
	seen := map[int]int{}
	for _, part := range first {
		for _, idx := range part {
			seen[idx]++
		}
	}
	if len(seen) != len(pending) {
		t.Fatalf("partition lost indices: %v", first)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("index %d assigned %d times", idx, n)
		}
	}
	// Round-robin over sorted executors spreads within one of each
	// other.
	for e := range execs {
		if d := len(first[e]) - len(pending)/len(execs); d < 0 || d > 1 {
			t.Errorf("executor %s has %d indices of %d", execs[e], len(first[e]), len(pending))
		}
	}
}

func TestProbeEjectAndReadmit(t *testing.T) {
	peer := newFakePeer(t)
	flight := obs.NewFlightRecorder(32)
	c := testCoordinator(t, Config{
		Peers:            []string{peer.ts.URL},
		ProbeInterval:    10 * time.Millisecond,
		RPCTimeout:       time.Second,
		FailThreshold:    2,
		ReadmitThreshold: 2,
		Flight:           flight,
		Retry:            service.RetryPolicy{Attempts: 1},
	})
	c.Start()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats %+v", desc, c.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	waitFor("first healthy probes", func() bool { return c.Stats().Probes >= 2 })
	if st := c.Stats(); st.PeersHealthy != 1 || st.Ejections != 0 {
		t.Fatalf("healthy peer miscounted: %+v", st)
	}

	peer.healthStatus.Store(http.StatusServiceUnavailable)
	waitFor("ejection", func() bool { return c.Stats().Ejections == 1 })
	if st := c.Stats(); st.PeersHealthy != 0 {
		t.Fatalf("ejected peer still counted healthy: %+v", st)
	}
	status := c.Status()
	if len(status.Peers) != 1 || status.Peers[0].Healthy || status.Peers[0].Ejections != 1 {
		t.Fatalf("status does not reflect ejection: %+v", status)
	}

	peer.healthStatus.Store(http.StatusOK)
	waitFor("re-admission", func() bool { return c.Stats().Readmissions == 1 })
	if st := c.Stats(); st.PeersHealthy != 1 {
		t.Fatalf("re-admitted peer not healthy: %+v", st)
	}

	// The flight recorder explains the transition: one eject event, one
	// readmit event, both naming the peer.
	var ejects, readmits int
	for _, ev := range flight.Recent(0) {
		switch ev.Endpoint {
		case "cluster.eject":
			ejects++
			if ev.Peer != peer.ts.URL || ev.Error == "" {
				t.Errorf("eject event missing provenance: %+v", ev)
			}
		case "cluster.readmit":
			readmits++
		}
	}
	if ejects != 1 || readmits != 1 {
		t.Errorf("flight events: %d ejects, %d readmits (want 1 each)", ejects, readmits)
	}
}

func TestFetchGraphHedgeWins(t *testing.T) {
	g := testGraph(t)
	env, err := service.EncodeProfileEnvelope(testKey, g)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newFakePeer(t), newFakePeer(t)
	a.envelope.Store(env)
	b.envelope.Store(env)

	// Replication 3 over {self, a, b} makes both remote peers owners of
	// every key, whatever the ring order.
	c := testCoordinator(t, Config{
		Peers:       []string{a.ts.URL, b.ts.URL},
		Replication: 3,
		HedgeDelay:  20 * time.Millisecond,
		RPCTimeout:  5 * time.Second,
		Retry:       service.RetryPolicy{Attempts: 1},
	})
	candidates := c.fetchCandidates(testKey)
	if len(candidates) != 2 {
		t.Fatalf("want both peers as candidates, got %v", candidates)
	}
	// Make the primary replica slow: the hedge must win.
	slow := candidates[0].name
	for _, p := range []*fakePeer{a, b} {
		if p.ts.URL == slow {
			p.fetchDelay.Store(int64(2 * time.Second))
		}
	}

	start := time.Now()
	got, servedBy, err := c.FetchGraph(context.Background(), testKey)
	if err != nil {
		t.Fatalf("hedged fetch failed: %v", err)
	}
	if servedBy == slow {
		t.Errorf("slow primary won the hedge")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("hedged fetch took %v: waited out the slow primary", d)
	}
	if got.TotalInstructions != g.TotalInstructions || len(got.Nodes) != len(g.Nodes) {
		t.Errorf("fetched graph differs: %d insts %d nodes", got.TotalInstructions, len(got.Nodes))
	}
	st := c.Stats()
	if st.HedgedFetches != 1 || st.HedgeWins != 1 || st.GraphFetchHits != 1 {
		t.Errorf("hedge accounting: %+v", st)
	}
}

func TestFetchGraphAllMiss(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t) // neither holds anything
	c := testCoordinator(t, Config{
		Peers:       []string{a.ts.URL, b.ts.URL},
		Replication: 3,
		HedgeDelay:  time.Millisecond,
		Retry:       service.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond},
	})
	_, _, err := c.FetchGraph(context.Background(), testKey)
	if !errors.Is(err, service.ErrNoRemoteGraph) {
		t.Fatalf("want ErrNoRemoteGraph, got %v", err)
	}
	st := c.Stats()
	if st.GraphFetchMisses != 1 {
		t.Errorf("miss not counted: %+v", st)
	}
	// A definitive 404 is Permanent: the client must not have burned
	// retries on it.
	if st.RPCRetries != 0 {
		t.Errorf("404 was retried %d times", st.RPCRetries)
	}
	if a.fetches.Load()+b.fetches.Load() > 2 {
		t.Errorf("peers fetched %d+%d times for a definitive miss", a.fetches.Load(), b.fetches.Load())
	}
	// Misses are not failure evidence: both peers stay healthy.
	if st.PeersHealthy != 2 {
		t.Errorf("miss ejected a healthy peer: %+v", st)
	}
}

func TestFetchGraphTruncatedEnvelopeRetried(t *testing.T) {
	g := testGraph(t)
	env, err := service.EncodeProfileEnvelope(testKey, g)
	if err != nil {
		t.Fatal(err)
	}
	peer := newFakePeer(t)
	peer.envelope.Store(env)

	// One injected mid-body truncation: the envelope's CRC/length checks
	// reject the damaged transfer and the retry fetches a clean copy.
	in := fault.New(7)
	in.Set(fault.SiteNetTruncate, fault.Rule{Prob: 1, Times: 1, Err: fault.ErrInjected})
	c := testCoordinator(t, Config{
		Peers:       []string{peer.ts.URL},
		Replication: 2,
		Transport:   &fault.Transport{Inject: in},
		Retry:       service.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond},
	})
	got, _, err := c.FetchGraph(context.Background(), testKey)
	if err != nil {
		t.Fatalf("fetch did not survive one truncated transfer: %v", err)
	}
	if got.TotalInstructions != g.TotalInstructions {
		t.Errorf("graph from retried fetch differs")
	}
	if st := c.Stats(); st.RPCRetries == 0 {
		t.Errorf("truncated transfer was not retried: %+v", st)
	}
}

// TestFetchGraphOlderVersionNotRetried: a peer still on an earlier
// store version answers every attempt with the same envelope, so the
// first one settles it — one transfer, no retries — and resolution
// falls through with the version sentinel.
func TestFetchGraphOlderVersionNotRetried(t *testing.T) {
	env, err := service.EncodeProfileEnvelope(testKey, testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(env[4:8], 1) // the envelope's version field
	peer := newFakePeer(t)
	peer.envelope.Store(env)
	c := testCoordinator(t, Config{
		Peers:       []string{peer.ts.URL},
		Replication: 2,
		Retry:       service.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond},
	})
	if _, _, err := c.FetchGraph(context.Background(), testKey); !errors.Is(err, service.ErrProfileVersion) {
		t.Fatalf("want ErrProfileVersion, got %v", err)
	}
	if n := peer.fetches.Load(); n != 1 {
		t.Errorf("peer fetched %d times, want 1", n)
	}
	if st := c.Stats(); st.RPCRetries != 0 {
		t.Errorf("version mismatch retried: %+v", st)
	}
}

func TestSweepPendingFailoverToLocal(t *testing.T) {
	// A peer that refuses every sweep RPC: all its points must fail
	// over, and with no other peer the local executor finishes them.
	peer := newFakePeer(t) // has no /v1/sweep: sub-sweeps 404 (Permanent)
	c := testCoordinator(t, Config{
		Peers:         []string{peer.ts.URL},
		Replication:   2,
		ChunkSize:     2,
		FailThreshold: 1,
		Retry:         service.RetryPolicy{Attempts: 1},
	})

	var mu sync.Mutex
	reported := map[int]bool{}
	var failoverPeer string
	var failoverPoints int
	job := service.ClusterSweepJob{
		Points:  make([]service.SweepPoint, 6),
		Pending: []int{0, 1, 2, 3, 4, 5},
		Report: func(indices []int, ms []core.Metrics) {
			mu.Lock()
			for _, i := range indices {
				reported[i] = true
			}
			mu.Unlock()
		},
		Local: func(ctx context.Context, indices []int) error {
			for _, i := range indices {
				job := i
				mu.Lock()
				reported[job] = true
				mu.Unlock()
			}
			return nil
		},
		Failover: func(peer string, points int) {
			mu.Lock()
			failoverPeer, failoverPoints = peer, points
			mu.Unlock()
		},
	}
	if err := c.SweepPending(context.Background(), job); err != nil {
		t.Fatalf("sweep did not survive peer loss: %v", err)
	}
	if len(reported) != 6 {
		t.Fatalf("only %d of 6 points completed: %v", len(reported), reported)
	}
	if failoverPeer != peer.ts.URL || failoverPoints == 0 {
		t.Errorf("failover callback: peer %q points %d", failoverPeer, failoverPoints)
	}
	st := c.Stats()
	if st.Failovers == 0 || st.RepartitionedPoints == 0 || st.Ejections != 1 {
		t.Errorf("failover accounting: %+v", st)
	}
	if st.LocalPoints != 6 || st.RemotePoints != 0 {
		t.Errorf("points accounting: %+v", st)
	}
}

func TestSweepPendingCancellation(t *testing.T) {
	c := testCoordinator(t, Config{Peers: []string{"http://peer.invalid:1"}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := service.ClusterSweepJob{
		Points:  make([]service.SweepPoint, 2),
		Pending: []int{0, 1},
		Report:  func([]int, []core.Metrics) {},
		Local:   func(ctx context.Context, indices []int) error { return ctx.Err() },
	}
	if err := c.SweepPending(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
}
