package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// postJSONTraced posts body with an explicit X-Request-Id so the test
// can find the request's spans and flight events afterwards.
func postJSONTraced(t *testing.T, url, traceID string, body, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
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

// TestSweepCostLedger runs a sweep with cost accounting requested and
// checks the ledger's core guarantee: every grid point has exactly one
// entry carrying (tier, node, wall time), and the opt-in is honoured —
// without cost:true the response body carries no ledger at all.
func TestSweepCostLedger(t *testing.T) {
	_, ts := newTestServer(t)
	req := SweepRequest{
		Profile: ProfileSpec{Workload: "gzip", K: 1, N: 60_000, Seed: 1},
		Grid:    "quick", Target: 5_000, Cost: true,
	}
	var resp SweepResponse
	if code, body := postJSON(t, ts.URL+"/v1/sweep", req, &resp); code != 200 {
		t.Fatalf("sweep: %d %s", code, body)
	}
	if len(resp.Cost) != resp.Points {
		t.Fatalf("ledger covers %d of %d points", len(resp.Cost), resp.Points)
	}
	seen := make(map[int]bool)
	for _, e := range resp.Cost {
		if seen[e.Index] {
			t.Fatalf("duplicate ledger entry for point %d", e.Index)
		}
		seen[e.Index] = true
		if e.Tier != TierSimulated {
			t.Errorf("point %d tier = %q, want simulated on a cold unclustered sweep", e.Index, e.Tier)
		}
		if e.Node != "local" {
			t.Errorf("point %d node = %q, want local", e.Index, e.Node)
		}
		if e.Cohort < 0 {
			t.Errorf("point %d has no lockstep cohort", e.Index)
		}
		if e.WallS < 0 {
			t.Errorf("point %d wall time negative: %v", e.Index, e.WallS)
		}
		if e.Estimated {
			t.Errorf("point %d flagged estimated without a surrogate", e.Index)
		}
	}
	for i := 0; i < resp.Points; i++ {
		if !seen[i] {
			t.Fatalf("point %d missing from the ledger", i)
		}
	}

	// TraceSpans is a fanout-only field; a direct sweep must not leak it,
	// and without cost:true the ledger must stay off the wire.
	req.Cost = false
	if code, body := postJSON(t, ts.URL+"/v1/sweep", req, nil); code != 200 {
		t.Fatalf("second sweep: %d %s", code, body)
	} else {
		if strings.Contains(body, `"cost"`) {
			t.Error("cost ledger leaked into a response that did not ask for it")
		}
		if strings.Contains(body, "trace_spans") {
			t.Error("trace_spans leaked into a non-fanout response")
		}
	}
}

// TestDebugTraceEndpoint exercises GET /v1/debug/trace/{id}: a traced
// sweep yields an assembled tree rooted at the http span with the
// sweep stages below it, a simulate's tree holds its pipeline stages,
// and unknown IDs answer 404.
func TestDebugTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	const traceID = "trace-tree-test"
	req := SweepRequest{
		Profile: ProfileSpec{Workload: "gzip", K: 1, N: 60_000, Seed: 1},
		Grid:    "quick", Target: 5_000,
	}
	if code, body := postJSONTraced(t, ts.URL+"/v1/sweep", traceID, req, nil); code != 200 {
		t.Fatalf("sweep: %d %s", code, body)
	}
	var tree obs.TraceTree
	if code := getJSON(t, ts.URL+"/v1/debug/trace/"+traceID, &tree); code != 200 {
		t.Fatalf("trace fetch: %d", code)
	}
	if tree.TraceID != traceID || tree.Spans == 0 || len(tree.Roots) == 0 {
		t.Fatalf("empty tree: %+v", tree)
	}
	if len(tree.Nodes) != 1 || tree.Nodes[0] != "local" {
		t.Fatalf("nodes = %v, want [local]", tree.Nodes)
	}
	root := tree.Roots[0]
	if root.Name != "http /v1/sweep" {
		t.Fatalf("root span = %q, want the http span", root.Name)
	}
	var cohorts int
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		if n.Name == "cohort" {
			cohorts++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if cohorts == 0 {
		t.Error("no cohort spans under the sweep root")
	}
	// The sweep paid for its profile, so the profile stage is a child
	// of the http root, attributed with the profiled stream length.
	if prof := childNamed(root, obs.StageProfile); prof == nil {
		t.Errorf("no profile span under the sweep root: %+v", root.Children)
	} else if prof.Instructions != 60_000 {
		t.Errorf("profile span instructions = %d, want 60000", prof.Instructions)
	}

	// A simulate on the same server: reduce and simulate under the http
	// root, generate under simulate, and no profile (the graph is cached).
	const simID = "trace-tree-simulate"
	var sim SimulateResponse
	if code, body := postJSONTraced(t, ts.URL+"/v1/simulate", simID,
		SimulateRequest{Profile: req.Profile, Target: 4_000}, &sim); code != 200 {
		t.Fatalf("simulate: %d %s", code, body)
	}
	var simTree obs.TraceTree
	if code := getJSON(t, ts.URL+"/v1/debug/trace/"+simID, &simTree); code != 200 {
		t.Fatalf("simulate trace fetch: %d", code)
	}
	if len(simTree.Roots) != 1 || simTree.Roots[0].Name != "http /v1/simulate" {
		t.Fatalf("simulate roots = %+v", simTree.Roots)
	}
	simRoot := simTree.Roots[0]
	if childNamed(simRoot, obs.StageReduce) == nil {
		t.Errorf("no reduce span under the simulate root: %+v", simRoot.Children)
	}
	if childNamed(simRoot, obs.StageProfile) != nil {
		t.Error("profile span on a request served from the graph cache")
	}
	simSpan := childNamed(simRoot, obs.StageSimulate)
	if simSpan == nil {
		t.Fatalf("no simulate span under the simulate root: %+v", simRoot.Children)
	}
	if simSpan.Instructions != sim.Metrics.Instructions || sim.Metrics.Instructions == 0 {
		t.Errorf("simulate span instructions = %d, response %d", simSpan.Instructions, sim.Metrics.Instructions)
	}
	if childNamed(simSpan, obs.StageGenerate) == nil {
		t.Errorf("no generate span under simulate: %+v", simSpan.Children)
	}

	if code := getJSON(t, ts.URL+"/v1/debug/trace/never-seen", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace: %d, want 404", code)
	}
}

// childNamed returns n's first direct child with the given name.
func childNamed(n *obs.TraceNode, name string) *obs.TraceNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// TestDebugRequestsTraceFilter pins satellite behaviour on the flight
// recorder: ?trace_id= keeps only the matching events, and each event
// reports how many spans its request produced.
func TestDebugRequestsTraceFilter(t *testing.T) {
	_, ts := newTestServer(t)
	spec := ProfileSpec{Workload: "gzip", K: 1, N: 60_000, Seed: 1}
	for _, id := range []string{"filter-a", "filter-b"} {
		if code, body := postJSONTraced(t, ts.URL+"/v1/profile", id, ProfileRequest{ProfileSpec: spec}, nil); code != 200 {
			t.Fatalf("profile %s: %d %s", id, code, body)
		}
	}
	var resp DebugRequestsResponse
	if code := getJSON(t, ts.URL+"/v1/debug/requests?trace_id=filter-a", &resp); code != 200 {
		t.Fatalf("debug requests: %d", code)
	}
	if len(resp.Events) != 1 {
		t.Fatalf("filter kept %d events, want 1", len(resp.Events))
	}
	ev := resp.Events[0]
	if ev.TraceID != "filter-a" {
		t.Fatalf("filtered event has trace %q", ev.TraceID)
	}
	if ev.Spans == 0 {
		t.Error("event reports zero spans for a traced request")
	}
	// An unknown trace ID filters everything out rather than erroring.
	if code := getJSON(t, ts.URL+"/v1/debug/requests?trace_id=no-such", &resp); code != 200 || len(resp.Events) != 0 {
		t.Fatalf("unknown filter: code %d, %d events", code, len(resp.Events))
	}
}

// TestCostLedgerUnit covers the ledger building blocks directly:
// default-node stamping, out-of-range safety, manifest folding and the
// deterministic counter export.
func TestCostLedgerUnit(t *testing.T) {
	l := newCostLedger("local", 3)
	l.record(0, TierStore, "", -1, 0.5, false)
	l.record(1, TierSimulated, "peer-b", 2, 1.25, false)
	l.record(-1, TierSimulated, "", 0, 1, false) // ignored
	l.record(3, TierSimulated, "", 0, 1, false)  // ignored
	var nilLedger *costLedger
	nilLedger.record(0, TierSimulated, "", 0, 1, false)
	if nilLedger.snapshot() != nil {
		t.Fatal("nil ledger snapshot not nil")
	}
	entries := l.snapshot()
	if entries[0].Node != "local" || entries[0].Tier != TierStore {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if entries[1].Node != "peer-b" || entries[1].Cohort != 2 {
		t.Fatalf("entry 1 = %+v", entries[1])
	}
	if entries[2].Tier != "" || entries[2].Cohort != -1 {
		t.Fatalf("unfilled slot mutated: %+v", entries[2])
	}

	mc := manifestCost(entries)
	if mc.Points != 3 || mc.PointsByTier[TierStore] != 1 || mc.PointsByTier[TierSimulated] != 2 {
		t.Fatalf("manifest cost = %+v", mc)
	}
	if mc.SecondsByTier[TierSimulated] != 1.25 {
		t.Fatalf("seconds by tier = %+v", mc.SecondsByTier)
	}
	if strings.Join(mc.Nodes, ",") != "local,peer-b" {
		t.Fatalf("nodes = %v", mc.Nodes)
	}
	if manifestCost(nil) != nil {
		t.Fatal("empty manifest cost not nil")
	}

	c := newCostCounters()
	c.add(entries)
	c.add(entries)
	out := c.export()
	if len(out) != 3 {
		t.Fatalf("export = %+v", out)
	}
	// Sorted by (tier, node): simulated/local (the unfilled slot defaults
	// to simulated with an empty node... no — unfilled keeps node "").
	if out[0].Tier != TierSimulated || out[1].Tier != TierSimulated || out[2].Tier != TierStore {
		t.Fatalf("export order: %+v", out)
	}
	if out[0].Node > out[1].Node {
		t.Fatalf("export node order: %+v", out)
	}
	for _, s := range out {
		if s.Points != 2 {
			t.Fatalf("counter did not accumulate: %+v", s)
		}
	}
}

// TestPrometheusCostFamilies renders the exposition with cost samples —
// including a label value needing escaping and a NaN seconds value —
// and checks the strict parser accepts it, the NaN sample is
// suppressed, and two renders are byte-identical (deterministic family
// and series order).
func TestPrometheusCostFamilies(t *testing.T) {
	m := NewMetrics()
	st := promSnapshot{
		build: BuildInfo{Version: "v1.2.3", GoVersion: "go1.xx"},
		costs: []costSample{
			{Tier: TierSimulated, Node: `node"odd\`, Points: 4, Seconds: 1.5},
			{Tier: TierStore, Node: "local", Points: 2, Seconds: math.NaN()},
			{Tier: TierSurrogate, Node: "local", Points: 1, Seconds: math.Inf(1)},
		},
	}
	var a, b bytes.Buffer
	if err := writePrometheus(&a, m, st); err != nil {
		t.Fatal(err)
	}
	if err := writePrometheus(&b, m, st); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exposition is not deterministic across renders")
	}
	samples := parsePrometheus(t, a.String())

	var points, seconds int
	for _, s := range samples {
		switch s.name {
		case "statsimd_point_cost_points_total":
			points++
			if s.labels["tier"] == TierSimulated && s.labels["node"] != `node"odd\` {
				t.Errorf("escaped node label did not round-trip: %+v", s)
			}
		case "statsimd_point_cost_seconds_total":
			seconds++
			if s.labels["tier"] != TierSimulated {
				t.Errorf("non-finite seconds sample not suppressed: %+v", s)
			}
		case "statsimd_build_info":
			if s.labels["version"] != "v1.2.3" {
				t.Errorf("build_info missing version label: %+v", s)
			}
		}
	}
	if points != 3 {
		t.Errorf("points samples = %d, want 3", points)
	}
	if seconds != 1 {
		t.Errorf("seconds samples = %d, want 1 (NaN and +Inf suppressed)", seconds)
	}

	// With no cost samples at all, the families stay off the exposition.
	var c bytes.Buffer
	st.costs = nil
	if err := writePrometheus(&c, m, st); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.String(), "statsimd_point_cost") {
		t.Error("empty cost families emitted")
	}
}

// TestFleetMetricsMerge drives the parser/merger directly: family
// preambles deduplicate, histogram children stay attached, the node
// label splices into both labelled and bare samples, and a down peer
// contributes only its up=0 gauge.
func TestFleetMetricsMerge(t *testing.T) {
	if got := injectNodeLabel(`m{a="b"} 1`, "n1"); got != `m{node="n1",a="b"} 1` {
		t.Errorf("labelled inject = %q", got)
	}
	if got := injectNodeLabel("m 2", "n1"); got != `m{node="n1"} 2` {
		t.Errorf("bare inject = %q", got)
	}
	if got := injectNodeLabel(`m{a="b"} 1`, `q"\`); got != `m{node="q\"\\",a="b"} 1` {
		t.Errorf("escaped inject = %q", got)
	}
	// A series that already carries a node label (the point-cost
	// families) must not end up with a duplicate label name: the
	// original is renamed exported_node.
	if got := injectNodeLabel(`m{node="x"} 1`, "n1"); got != `m{node="n1",exported_node="x"} 1` {
		t.Errorf("node-label rename (first) = %q", got)
	}
	if got := injectNodeLabel(`m{tier="simulated",node="x"} 1`, "n1"); got != `m{node="n1",tier="simulated",exported_node="x"} 1` {
		t.Errorf("node-label rename (mid) = %q", got)
	}
	// A label merely ending in "node" is not renamed.
	if got := injectNodeLabel(`m{mynode="x"} 1`, "n1"); got != `m{node="n1",mynode="x"} 1` {
		t.Errorf("suffix label wrongly renamed = %q", got)
	}

	expo := "# HELP lat Request latency.\n# TYPE lat histogram\n" +
		"lat_bucket{le=\"0.1\"} 1\nlat_bucket{le=\"+Inf\"} 2\nlat_sum 0.3\nlat_count 2\n" +
		"# HELP up2 Gauge.\n# TYPE up2 gauge\nup2 1\n"
	fams := parsePromFamilies([]byte(expo))
	if len(fams) != 2 {
		t.Fatalf("parsed %d families, want 2: %+v", len(fams), fams)
	}
	if fams[0].name != "lat" || len(fams[0].samples) != 4 {
		t.Fatalf("histogram children detached: %+v", fams[0])
	}

	var out bytes.Buffer
	writeFleetMetrics(&out, []fleetSection{
		{node: "self", body: []byte(expo), up: true},
		{node: "peer-down", up: false},
		{node: "peer-up", body: []byte("# HELP up2 Gauge.\n# TYPE up2 gauge\nup2 0\n"), up: true},
	})
	merged := out.String()
	for _, want := range []string{
		`statsimd_fleet_node_up{node="self"} 1`,
		`statsimd_fleet_node_up{node="peer-down"} 0`,
		`statsimd_fleet_node_up{node="peer-up"} 1`,
		`lat_bucket{node="self",le="+Inf"} 2`,
		`up2{node="self"} 1`,
		`up2{node="peer-up"} 0`,
	} {
		if !strings.Contains(merged, want) {
			t.Errorf("merged exposition missing %q:\n%s", want, merged)
		}
	}
	if strings.Count(merged, "# TYPE up2 gauge") != 1 {
		t.Error("family preamble duplicated in merge")
	}
	if strings.Contains(merged, `node="peer-down",`) {
		t.Error("down peer contributed samples")
	}
	// The merged exposition must itself survive the strict parser.
	parsePrometheus(t, merged)
}

// TestClusterMetricsEndpoint covers the endpoint's two modes: 404 when
// unclustered, and a self-only fleet view (with the unreachable fake
// peer machinery absent) when clustered.
func TestClusterMetricsEndpoint(t *testing.T) {
	svc, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unclustered fleet view: %d, want 404", resp.StatusCode)
	}

	svc.SetCluster(&fakeCluster{})
	resp, err = http.Get(ts.URL + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet view: %d", resp.StatusCode)
	}
	if !strings.Contains(body.String(), `statsimd_fleet_node_up{node="fake"} 1`) {
		t.Fatalf("fleet view missing self up gauge:\n%.400s", body.String())
	}
	if !strings.Contains(body.String(), `statsimd_uptime_seconds{node="fake"}`) {
		t.Error("self exposition not node-labelled")
	}
}

// TestTraceStoreEvictionViaOptions pins the TraceStoreSize option: a
// tiny store retains only the most recent traces.
func TestTraceStoreEvictionViaOptions(t *testing.T) {
	_, ts := newTestServerOpts(t, Options{
		Workers: 2, CacheSize: 4, JobTimeout: time.Minute, TraceStoreSize: 16,
	})
	for i := 0; i < 18; i++ {
		id := "evict-" + string(rune('a'+i))
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/workloads", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %s: %d", id, resp.StatusCode)
		}
	}
	// GET /v1/workloads is instrumented, so each request above produced a
	// trace; the first two must have been evicted by now.
	if code := getJSON(t, ts.URL+"/v1/debug/trace/evict-a", nil); code != http.StatusNotFound {
		t.Fatalf("oldest trace retained past capacity: %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/debug/trace/evict-r", nil); code != 200 {
		t.Fatalf("newest trace not retained: %d", code)
	}
}
