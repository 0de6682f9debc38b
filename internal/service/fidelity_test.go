package service

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fidelity"
	"repro/internal/obs"
)

func manifestFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func readManifest(t *testing.T, path string) obs.Manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	return m
}

func fidelitySimBody(workload string) map[string]any {
	return map[string]any{
		"profile": map[string]any{"workload": workload, "n": 120_000, "k": 1},
		"fidelity": map[string]any{
			"target_ci": 0.02,
			"interval":  10_000,
		},
	}
}

func TestFidelitySimulate(t *testing.T) {
	svc, ts := newTestServer(t)
	var resp SimulateResponse
	code, raw := postJSON(t, ts.URL+"/v1/simulate", fidelitySimBody("gzip"), &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	res := resp.Fidelity
	if res == nil {
		t.Fatalf("no fidelity block in response: %s", raw)
	}
	if res.IPCLo <= 0 || res.IPCHi <= res.IPCLo || resp.Metrics.IPC != res.IPC {
		t.Errorf("malformed interval: %+v", res)
	}
	if res.DetailedFrac > 0.25 {
		t.Errorf("detailed fraction %v over budget", res.DetailedFrac)
	}
	if resp.Reduction != 0 {
		t.Errorf("fidelity run reported reduction %d", resp.Reduction)
	}

	// The run must land in the daemon-wide counters ...
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Fidelity.Runs != 1 || snap.Fidelity.CIWidthCount != 1 {
		t.Errorf("fidelity stats not counted: %+v", snap.Fidelity)
	}
	if snap.Fidelity.DetailedInsts != res.DetailedInstructions {
		t.Errorf("detailed insts %d, want %d", snap.Fidelity.DetailedInsts, res.DetailedInstructions)
	}

	// ... in the flight recorder ...
	evs := svc.flight.Recent(1)
	if len(evs) != 1 || evs[0].Escalations != len(res.Escalations) ||
		evs[0].DetailedInsts != res.DetailedInstructions || evs[0].CIWidth != res.RelHalfWidth {
		t.Errorf("flight event missing fidelity outcomes: %+v", evs)
	}

	// ... and in the Prometheus exposition.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=prometheus", nil)
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := hresp.Body.Read(buf)
	text := string(buf[:n])
	for _, want := range []string{
		"statsimd_fidelity_runs_total 1",
		"statsimd_fidelity_escalations_total",
		"statsimd_fidelity_detailed_insts_total",
		"statsimd_fidelity_ci_width_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestFidelitySimulateDeterministicAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t)
	run := func() string {
		code, raw := postJSON(t, ts.URL+"/v1/simulate", fidelitySimBody("vpr"), nil)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		// elapsed_ms is the only wall-clock-dependent field.
		i := strings.Index(raw, `"elapsed_ms"`)
		return raw[:i]
	}
	if a, b := run(), run(); a != b {
		t.Errorf("fidelity responses differ across identical requests:\n%s\n%s", a, b)
	}
}

func TestFidelitySimulateValidation(t *testing.T) {
	_, ts := newTestServer(t)
	bad := []map[string]any{
		{"profile": map[string]any{"workload": "gzip"},
			"fidelity": map[string]any{"target_ci": 1.5}},
		{"profile": map[string]any{"workload": "gzip"},
			"fidelity": map[string]any{"target_ci": 0.02, "max_detailed_frac": 2.0}},
		{"profile": map[string]any{"workload": "gzip"},
			"fidelity": map[string]any{"target_ci": 0.02, "confidence": 0.5}},
		{"profile": map[string]any{"workload": "nosuch"},
			"fidelity": map[string]any{"target_ci": 0.02}},
		{"profile": map[string]any{},
			"fidelity": map[string]any{"target_ci": 0.02}},
	}
	for i, body := range bad {
		code, raw := postJSON(t, ts.URL+"/v1/simulate", body, nil)
		if code == http.StatusOK {
			t.Errorf("case %d accepted: %s", i, raw)
		}
	}
}

func TestFidelitySweep(t *testing.T) {
	_, ts := newTestServer(t)
	body := map[string]any{
		"profile": map[string]any{"workload": "gzip", "n": 100_000},
		"points": []map[string]any{
			{"ruu": 16, "lsq": 8, "decode": 4, "issue": 4, "commit": 4},
			{"ruu": 64, "lsq": 32, "decode": 4, "issue": 4, "commit": 4},
		},
		"fidelity": map[string]any{"target_ci": 0.02, "interval": 10_000},
	}
	var resp SweepResponse
	code, raw := postJSON(t, ts.URL+"/v1/sweep", body, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	for i, row := range resp.Results {
		if row.Fidelity == nil {
			t.Fatalf("row %d missing fidelity block", i)
		}
		if row.Fidelity.IPCLo <= 0 || row.Fidelity.IPCHi <= row.Fidelity.IPCLo {
			t.Errorf("row %d malformed interval: %+v", i, row.Fidelity)
		}
	}
	// The bigger window must not be slower: interval centres should
	// order sensibly even under estimation noise.
	if resp.Results[1].Metrics.IPC < resp.Results[0].Metrics.IPC*0.8 {
		t.Errorf("128-RUU point much slower than 16-RUU point: %v vs %v",
			resp.Results[1].Metrics.IPC, resp.Results[0].Metrics.IPC)
	}
}

func TestFidelitySweepPointCap(t *testing.T) {
	_, ts := newTestServer(t)
	points := make([]map[string]any, maxFidelitySweepPoints+1)
	for i := range points {
		points[i] = map[string]any{"ruu": 16 + i, "lsq": 8, "decode": 4, "issue": 4, "commit": 4}
	}
	body := map[string]any{
		"profile":  map[string]any{"workload": "gzip", "n": 50_000},
		"points":   points,
		"fidelity": map[string]any{"target_ci": 0.02},
	}
	code, raw := postJSON(t, ts.URL+"/v1/sweep", body, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, raw)
	}
	if !strings.Contains(raw, "fidelity sweep limit") {
		t.Errorf("unexpected error body: %s", raw)
	}
}

func TestFidelityManifest(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServerOpts(t, Options{Workers: 4, CacheSize: 4,
		JobTimeout: time.Minute, ManifestDir: dir})
	code, raw := postJSON(t, ts.URL+"/v1/simulate", fidelitySimBody("gzip"), nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	files := manifestFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("got %d manifests, want 1", len(files))
	}
	m := readManifest(t, files[0])
	if m.Fidelity == nil {
		t.Fatal("manifest missing fidelity block")
	}
	if m.Fidelity.IPCLo <= 0 || m.Fidelity.IPCHi <= m.Fidelity.IPCLo || m.Fidelity.Strata == 0 {
		t.Errorf("manifest fidelity block: %+v", m.Fidelity)
	}
}

func encodeFidelity(t *testing.T, res *fidelity.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fidelityPoints is the 2-point sweep the fidelity key tests serve.
var fidelityPoints = []SweepPoint{
	{RUU: 16, LSQ: 8, Decode: 4, Issue: 4, Commit: 4},
	{RUU: 64, LSQ: 32, Decode: 4, Issue: 4, Commit: 4},
}

// servedFidelity posts a fidelity /v1/simulate and a fidelity /v1/sweep
// over fidelityPoints for profile at simSeed. It returns the simulate
// result, then each sweep row, as JSON.
func servedFidelity(t *testing.T, url string, profile ProfileSpec, spec FidelitySpec, simSeed uint64) []string {
	t.Helper()
	var sim SimulateResponse
	code, raw := postJSON(t, url+"/v1/simulate", map[string]any{
		"profile": profile, "fidelity": spec, "sim_seed": simSeed}, &sim)
	if code != http.StatusOK {
		t.Fatalf("simulate status %d: %s", code, raw)
	}
	var sw SweepResponse
	code, raw = postJSON(t, url+"/v1/sweep", map[string]any{
		"profile": profile, "points": fidelityPoints, "fidelity": spec, "sim_seed": simSeed}, &sw)
	if code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", code, raw)
	}
	out := []string{encodeFidelity(t, sim.Fidelity)}
	for _, row := range sw.Results {
		out = append(out, encodeFidelity(t, row.Fidelity))
	}
	return out
}

// engineFidelity runs the engine directly with opts the way the two
// endpoints do, in servedFidelity's order: one engine for the default
// configuration, one shared by the sweep's points.
func engineFidelity(t *testing.T, svc *Server, profile ProfileSpec, opts fidelity.Options) []string {
	t.Helper()
	w, err := core.LoadWorkload(profile.Workload)
	if err != nil {
		t.Fatal(err)
	}
	base := cpu.DefaultConfig()
	ctx := context.Background()
	var out []string
	for _, cfgs := range [][]cpu.Config{{base}, {fidelityPoints[0].Apply(base), fidelityPoints[1].Apply(base)}} {
		eng, err := fidelity.New(ctx, svc.pool, base, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			res, err := eng.Run(ctx, svc.pool, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, encodeFidelity(t, res))
		}
	}
	return out
}

// TestFidelityHonoursSimSeed: a fidelity /v1/simulate and a fidelity
// /v1/sweep answer for the request's sim_seed — the same results as the
// engine run with that SimSeed, different ones for another seed — and
// record the seed in their manifests.
func TestFidelityHonoursSimSeed(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newTestServerOpts(t, Options{Workers: 4, CacheSize: 4,
		JobTimeout: time.Minute, ManifestDir: dir})
	spec := FidelitySpec{TargetCI: 0.5, Interval: 10_000}
	profile := ProfileSpec{Workload: "gzip", K: 1, N: 100_000}
	key, err := profile.key(svc.opts)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.options(key, 7)
	if err != nil {
		t.Fatal(err)
	}
	got7 := servedFidelity(t, ts.URL, profile, spec, 7)
	got1 := servedFidelity(t, ts.URL, profile, spec, 1)
	if want := engineFidelity(t, svc, profile, opts); !slices.Equal(got7, want) {
		t.Errorf("sim_seed 7 served\n%v\nwant the SimSeed 7 engine run\n%v", got7, want)
	}
	for i := range got7 {
		if got7[i] == got1[i] {
			t.Errorf("result %d is the same for sim_seed 7 and 1: %s", i, got7[i])
		}
	}
	var seeds []string
	for _, f := range manifestFiles(t, dir) {
		m := readManifest(t, f)
		seeds = append(seeds, m.Tool+" "+strconv.FormatUint(m.SimSeed, 10))
	}
	slices.Sort(seeds)
	want := []string{"statsimd /v1/simulate 1", "statsimd /v1/simulate 7", "statsimd /v1/sweep 1", "statsimd /v1/sweep 7"}
	if !slices.Equal(seeds, want) {
		t.Errorf("manifest sim seeds %v, want %v", seeds, want)
	}
}

// TestFidelityAnswersItsKey: a fidelity request answers for the profile
// key its response names. k 0 profiles the zero-order SFG — the engine
// run with K 0, not k 1's answer — and an immediate-update key, which
// the delayed-update engine cannot compute, is refused on both
// endpoints rather than answered with delayed-update numbers.
func TestFidelityAnswersItsKey(t *testing.T) {
	svc, ts := newTestServerOpts(t, Options{Workers: 4, CacheSize: 4, JobTimeout: time.Minute})
	spec := FidelitySpec{TargetCI: 0.5, Interval: 10_000}
	k0 := ProfileSpec{Workload: "gzip", K: 0, N: 100_000}
	k1 := k0
	k1.K = 1
	got0 := servedFidelity(t, ts.URL, k0, spec, 1)
	got1 := servedFidelity(t, ts.URL, k1, spec, 1)
	for i := range got0 {
		if got0[i] == got1[i] {
			t.Errorf("result %d is the same for k 0 and k 1: %s", i, got0[i])
		}
	}
	key, err := k0.key(svc.opts)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.options(key, 1)
	if err != nil {
		t.Fatal(err)
	}
	if opts.K != 0 {
		t.Fatalf("k 0 request maps to engine K %d", opts.K)
	}
	if want := engineFidelity(t, svc, k0, opts); !slices.Equal(got0, want) {
		t.Errorf("k 0 served\n%v\nwant the K 0 engine run\n%v", got0, want)
	}

	imm := k1
	imm.Immediate = true
	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/simulate", map[string]any{"profile": imm, "fidelity": spec}},
		{"/v1/sweep", map[string]any{"profile": imm, "points": fidelityPoints, "fidelity": spec}},
	} {
		code, raw := postJSON(t, ts.URL+tc.path, tc.body, nil)
		if code != http.StatusBadRequest || !strings.Contains(raw, "profile.immediate") {
			t.Errorf("%s with immediate update: status %d, want 400 naming profile.immediate: %s", tc.path, code, raw)
		}
	}
}
