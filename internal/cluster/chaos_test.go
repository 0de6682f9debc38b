package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/service"
)

// killableNode wraps one in-process statsimd node so a test can make it
// "die": once killed, every request — in-flight or new, healthz
// included — is aborted at the connection level, which is what a
// crashed process looks like to its peers.
type killableNode struct {
	svc     *service.Server
	ts      *httptest.Server
	coord   *cluster.Coordinator
	dead    atomic.Bool
	fanouts atomic.Uint64 // sub-sweep requests received
}

func (n *killableNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if r.URL.Path == "/v1/sweep" && r.Header.Get(service.ClusterFanoutHeader) != "" {
		n.fanouts.Add(1)
	}
	n.svc.Handler().ServeHTTP(w, r)
}

func (n *killableNode) kill() {
	n.dead.Store(true)
	n.ts.CloseClientConnections()
}

func clusterPost(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v (%s)", url, err, raw.String())
		}
	}
	return resp.StatusCode, raw.String()
}

var clusterSpec = service.ProfileSpec{Workload: "vpr", K: 1, N: 20_000, Seed: 1}

func clusterSweepReq() service.SweepRequest {
	return service.SweepRequest{Profile: clusterSpec, Grid: "quick", Target: 5_000}
}

// startCluster brings up n in-process nodes, each a full service.Server
// with its own cache-dir plus a Coordinator over the others.
func startCluster(t *testing.T, n int, faultsFor func(i int) *fault.Injector) []*killableNode {
	t.Helper()
	nodes := make([]*killableNode, n)
	for i := range nodes {
		var in *fault.Injector
		if faultsFor != nil {
			in = faultsFor(i)
		}
		svc, err := service.New(service.Options{
			Workers:    2,
			CacheSize:  4,
			JobTimeout: time.Minute,
			CacheDir:   t.TempDir(),
			Retry:      service.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			Faults:     in,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &killableNode{svc: svc}
		nodes[i].ts = httptest.NewServer(nodes[i])
		t.Cleanup(nodes[i].ts.Close)
		t.Cleanup(func() { svc.Close(context.Background()) })
	}
	for i, node := range nodes {
		var peers []string
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other.ts.URL)
			}
		}
		coord, err := cluster.New(cluster.Config{
			Self:          node.ts.URL,
			Peers:         peers,
			Replication:   2,
			ChunkSize:     2,
			ProbeInterval: 50 * time.Millisecond,
			RPCTimeout:    2 * time.Second,
			SweepTimeout:  time.Minute,
			FailThreshold: 1,
			// High enough that the killed peer is never re-admitted by
			// accident within the test window.
			ReadmitThreshold: 1000,
			HedgeDelay:       10 * time.Millisecond,
			Retry:            service.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			Flight:           node.svc.Flight(),
		})
		if err != nil {
			t.Fatal(err)
		}
		node.coord = coord
		node.svc.SetCluster(coord)
		coord.Start()
		t.Cleanup(coord.Close)
	}
	return nodes
}

// TestClusterChaosKillPeerMidSweep is the cluster tier's headline
// scenario: a 3-node cluster runs a sweep fanned out across all nodes,
// one peer dies while its sub-sweeps are in flight, and the sweep must
// still complete — with results byte-identical to an undisturbed
// single-node serial daemon's.
func TestClusterChaosKillPeerMidSweep(t *testing.T) {
	// Reference: an undisturbed single-worker, unclustered daemon.
	goldenSvc, err := service.New(service.Options{Workers: 1, CacheSize: 4, JobTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	goldenTS := httptest.NewServer(goldenSvc.Handler())
	t.Cleanup(goldenTS.Close)
	t.Cleanup(func() { goldenSvc.Close(context.Background()) })
	var golden service.SweepResponse
	if code, body := clusterPost(t, goldenTS.URL+"/v1/sweep", clusterSweepReq(), &golden); code != 200 {
		t.Fatalf("golden sweep: %d %s", code, body)
	}
	goldenJSON, _ := json.Marshal(golden.Results)

	// The victim's sweep jobs are slowed so its sub-sweeps are reliably
	// in flight when it dies.
	const victim = 1
	nodes := startCluster(t, 3, func(i int) *fault.Injector {
		if i != victim {
			return nil
		}
		in := fault.New(99)
		in.Set(service.SiteSweepJob, fault.Rule{Prob: 1, Times: 100, Delay: 150 * time.Millisecond})
		return in
	})

	type sweepOutcome struct {
		resp service.SweepResponse
		code int
		body string
	}
	done := make(chan sweepOutcome, 1)
	go func() {
		var out sweepOutcome
		out.code, out.body = clusterPost(t, nodes[0].ts.URL+"/v1/sweep", clusterSweepReq(), &out.resp)
		done <- out
	}()

	// Kill the victim once it is actually working on a sub-sweep.
	deadline := time.Now().Add(10 * time.Second)
	for nodes[victim].fanouts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim never received a sub-sweep")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond) // let it get into the slow jobs
	nodes[victim].kill()

	out := <-done
	if out.code != 200 {
		t.Fatalf("clustered sweep did not survive peer death: %d %s", out.code, out.body)
	}
	if out.resp.Points != 9 || len(out.resp.Results) != 9 {
		t.Fatalf("point accounting broken: %+v", out.resp)
	}
	gotJSON, _ := json.Marshal(out.resp.Results)
	if !bytes.Equal(gotJSON, goldenJSON) {
		t.Errorf("clustered sweep with peer death differs from serial single-node run:\n%s\nvs\n%s",
			gotJSON, goldenJSON)
	}

	st := nodes[0].coord.Stats()
	if st.Failovers == 0 || st.RepartitionedPoints == 0 {
		t.Errorf("peer death did not register as failover: %+v", st)
	}
	if st.Ejections == 0 {
		t.Errorf("dead peer was never ejected: %+v", st)
	}
	// The flight recorder on the coordinator explains the reroute.
	var sawFailover bool
	for _, ev := range nodes[0].svc.Flight().Recent(0) {
		if ev.Endpoint == "cluster.failover" && ev.Peer == nodes[victim].ts.URL {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Error("no cluster.failover event in the flight recorder")
	}

	// The same sweep re-requested now — against the shrunken cluster —
	// resumes entirely from the coordinator's journal: every point was
	// reported and appended during the failover run.
	var again service.SweepResponse
	if code, body := clusterPost(t, nodes[0].ts.URL+"/v1/sweep", clusterSweepReq(), &again); code != 200 {
		t.Fatalf("re-sweep after peer death: %d %s", code, body)
	}
	if again.Resumed != 9 {
		t.Errorf("re-sweep recomputed points: resumed %d of 9", again.Resumed)
	}
	againJSON, _ := json.Marshal(again.Results)
	if !bytes.Equal(againJSON, goldenJSON) {
		t.Errorf("journal-resumed sweep differs from golden")
	}
}

// TestClusterGraphReplication exercises the peer cache tier end to end:
// node 0 pays for profiling once, the graph replicates to the key's
// owners, and a sweep on another node fetches it instead of
// re-profiling.
func TestClusterGraphReplication(t *testing.T) {
	nodes := startCluster(t, 3, nil)

	var prof service.ProfileResponse
	if code, body := clusterPost(t, nodes[0].ts.URL+"/v1/profile",
		service.ProfileRequest{ProfileSpec: clusterSpec}, &prof); code != 200 {
		t.Fatalf("profile: %d %s", code, body)
	}

	// Replication is asynchronous: a simulate racing node 0's offer to
	// the key's owners finds no replica yet and re-profiles. Let the
	// offers land first, as they would in any settled cluster.
	owners := uint64(len(nodes[0].coord.RemoteOwners(prof.Key)))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st := nodes[0].coord.Stats()
		if st.OffersSent+st.OfferFailures >= owners {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("offers to %d owners never completed: %+v", owners, st)
		}
	}

	// Ask every other node to simulate: each must resolve the profile
	// without profiling it again (hedged remote fetch or replicated
	// offer, either is a win).
	for i := 1; i < 3; i++ {
		var sim service.SimulateResponse
		if code, body := clusterPost(t, nodes[i].ts.URL+"/v1/simulate",
			service.SimulateRequest{Profile: clusterSpec, Target: 5_000}, &sim); code != 200 {
			t.Fatalf("simulate on node %d: %d %s", i, code, body)
		}
	}
	var profiled uint64
	for i, n := range nodes {
		resp, err := http.Get(n.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var snap service.MetricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if c := snap.Stages["profile"].Count; c > 0 {
			profiled += c
			if i != 0 {
				t.Logf("node %d profiled %d times", i, c)
			}
		}
	}
	if profiled > 1 {
		t.Errorf("profile computed %d times across the cluster, want 1 (peer fetch failed)", profiled)
	}
	// The fetch/offer surfaces saw traffic.
	var fetched, offered uint64
	for _, n := range nodes {
		st := n.coord.Stats()
		fetched += st.GraphFetchHits
		offered += st.OffersSent
	}
	if fetched == 0 && offered == 0 {
		t.Error("no peer graph traffic at all: cluster tier inert")
	}
}

// TestClusterStatusEndpoint smoke-checks GET /v1/cluster/status on a
// live cluster.
func TestClusterStatusEndpoint(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	resp, err := http.Get(nodes[0].ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status endpoint: %d", resp.StatusCode)
	}
	var body struct {
		Self        string `json:"self"`
		Replication int    `json:"replication"`
		Peers       []service.PeerStatus
		Stats       service.ClusterStats       `json:"stats"`
		Served      service.ClusterServedStats `json:"served"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Self != nodes[0].ts.URL || body.Replication != 2 || len(body.Peers) != 1 {
		t.Errorf("status body: %+v", body)
	}
	if body.Peers[0].Name != nodes[1].ts.URL || !body.Peers[0].Healthy {
		t.Errorf("peer status: %+v", body.Peers[0])
	}
}
