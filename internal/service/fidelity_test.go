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
	points := []SweepPoint{
		{RUU: 16, LSQ: 8, Decode: 4, Issue: 4, Commit: 4},
		{RUU: 64, LSQ: 32, Decode: 4, Issue: 4, Commit: 4},
	}
	w, err := core.LoadWorkload(profile.Workload)
	if err != nil {
		t.Fatal(err)
	}
	base := cpu.DefaultConfig()
	encode := func(res *fidelity.Result) string {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// engine runs the engine directly with SimSeed simSeed: the default
	// configuration (what /v1/simulate times), then each sweep point.
	engine := func(simSeed uint64) []string {
		opts, err := spec.options(profile, 0, svc.opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.SimSeed = simSeed
		ctx := context.Background()
		var out []string
		for _, cfgs := range [][]cpu.Config{{base}, {points[0].Apply(base), points[1].Apply(base)}} {
			eng, err := fidelity.New(ctx, svc.pool, base, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range cfgs {
				res, err := eng.Run(ctx, svc.pool, cfg)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, encode(res))
			}
		}
		return out
	}
	served := func(simSeed uint64) []string {
		var sim SimulateResponse
		code, raw := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
			"profile": profile, "fidelity": spec, "sim_seed": simSeed}, &sim)
		if code != http.StatusOK {
			t.Fatalf("simulate status %d: %s", code, raw)
		}
		var sw SweepResponse
		code, raw = postJSON(t, ts.URL+"/v1/sweep", map[string]any{
			"profile": profile, "points": points, "fidelity": spec, "sim_seed": simSeed}, &sw)
		if code != http.StatusOK {
			t.Fatalf("sweep status %d: %s", code, raw)
		}
		out := []string{encode(sim.Fidelity)}
		for _, row := range sw.Results {
			out = append(out, encode(row.Fidelity))
		}
		return out
	}
	got7, got1 := served(7), served(1)
	if want := engine(7); !slices.Equal(got7, want) {
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
