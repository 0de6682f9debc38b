package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestMetricsConcurrent hammers the registry from many goroutines —
// endpoint and stage observations plus concurrent snapshots — and
// checks the totals. Run under -race this also proves the lock-free
// reads of the fixed family maps are sound.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	const goroutines = 8
	const perG = 200
	stages := []obs.StageTiming{{Name: obs.StageGenerate, DurationS: 1e-6}, {Name: obs.StageSimulate, DurationS: 1e-4}}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			other := knownEndpoints[2+g%2]
			for i := 0; i < perG; i++ {
				m.Endpoint("/v1/simulate").Observe(time.Millisecond, i%10 == 0)
				m.Endpoint(other).Observe(time.Microsecond, false)
				m.ObserveStages(stages)
				if i%50 == 0 {
					_ = m.Snapshot(nil, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	snap := m.Snapshot(nil, nil)
	if got := snap.Endpoints["/v1/simulate"].Count; got != goroutines*perG {
		t.Errorf("/v1/simulate count = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Endpoints["/v1/simulate"].Errors; got != goroutines*perG/10 {
		t.Errorf("/v1/simulate errors = %d, want %d", got, goroutines*perG/10)
	}
	for _, other := range knownEndpoints[2:] {
		if got := snap.Endpoints[other].Count; got != goroutines/2*perG {
			t.Errorf("%s count = %d, want %d", other, got, goroutines/2*perG)
		}
	}
	for _, st := range stages {
		if got := snap.Stages[st.Name].Count; got != goroutines*perG {
			t.Errorf("%s stage count = %d, want %d", st.Name, got, goroutines*perG)
		}
	}
}

// TestMetricsSnapshotOmitsIdleStages pins the wire format: stage
// families exist from construction (pre-registration) but must not
// appear in the JSON snapshot until observed.
func TestMetricsSnapshotOmitsIdleStages(t *testing.T) {
	m := NewMetrics()
	if got := len(m.Snapshot(nil, nil).Stages); got != 0 {
		t.Fatalf("fresh registry reports %d stage families, want 0", got)
	}
	m.ObserveStages([]obs.StageTiming{{Name: obs.StageProfile, DurationS: 1e-3}})
	snap := m.Snapshot(nil, nil)
	if len(snap.Stages) != 1 || snap.Stages[obs.StageProfile].Count != 1 {
		t.Fatalf("stages after one observation: %+v", snap.Stages)
	}
	// Endpoints, by contrast, always appear: the daemon serves them all.
	if got := len(snap.Endpoints); got != len(knownEndpoints) {
		t.Fatalf("endpoint families = %d, want %d", got, len(knownEndpoints))
	}
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (.+)$`)
var promLabelRE = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)

// parsePrometheus is the round-trip half of the exposition test: a
// strict line-by-line parse that fails on anything a real scraper
// would reject (samples without TYPE/HELP, bad label syntax, duplicate
// series, unparseable values).
func parsePrometheus(t *testing.T, body string) []promSample {
	t.Helper()
	typed := map[string]string{}
	helped := map[string]bool{}
	seen := map[string]bool{}
	var samples []promSample
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("HELP without text: %q", line)
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || (f[1] != "counter" && f[1] != "gauge" && f[1] != "histogram" && f[1] != "summary") {
				t.Fatalf("bad TYPE line: %q", line)
			}
			typed[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample: %q", line)
		}
		s := promSample{name: m[1], labels: map[string]string{}}
		if m[2] != "" {
			rest := m[2]
			for len(rest) > 0 {
				lm := promLabelRE.FindStringSubmatchIndex(rest)
				if lm == nil || lm[0] != 0 {
					t.Fatalf("bad label syntax in %q", line)
				}
				key := rest[lm[2]:lm[3]]
				val := rest[lm[4]:lm[5]]
				for _, esc := range [][2]string{{`\\`, `\`}, {`\"`, `"`}, {`\n`, "\n"}} {
					val = strings.ReplaceAll(val, esc[0], esc[1])
				}
				s.labels[key] = val
				rest = rest[lm[1]:]
				rest = strings.TrimPrefix(rest, ",")
			}
		}
		switch m[3] {
		case "+Inf":
			s.value = 1e308
		default:
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			s.value = v
		}
		family := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(s.name, suffix); base != s.name {
				if _, ok := typed[base]; ok {
					family = base
				}
			}
		}
		if _, ok := typed[family]; !ok || !helped[family] {
			t.Fatalf("sample %q lacks TYPE/HELP preamble", line)
		}
		if key := line[:strings.LastIndex(line, " ")]; seen[key] {
			t.Fatalf("duplicate series: %q", key)
		} else {
			seen[key] = true
		}
		samples = append(samples, s)
	}
	return samples
}

// TestPrometheusExposition drives known observations through the
// registry, renders the exposition and parses it back, checking the
// numbers survive the round trip: counts, cumulative bucket series and
// sums in seconds. TestPrometheusCostFamilies covers label escaping.
func TestPrometheusExposition(t *testing.T) {
	m := NewMetrics()
	// 3 requests on /v1/simulate (one failed), durations 1ms, 2ms, 1s.
	h := m.Endpoint("/v1/simulate")
	h.Observe(time.Millisecond, false)
	h.Observe(2*time.Millisecond, true)
	h.Observe(time.Second, false)
	m.ObserveStages([]obs.StageTiming{{Name: obs.StageSimulate, DurationS: 5e-3}})

	var buf bytes.Buffer
	st := promSnapshot{
		MetricsSnapshot: MetricsSnapshot{
			UptimeSeconds: 12.5,
			Cache:         CacheStats{Hits: 7, Misses: 3, Capacity: 16},
			Pool:          PoolStats{Workers: 4},
			Robustness:    RobustnessStats{Shed: 2},
		},
		build:        BuildInfo{GoVersion: "go1.xx", Revision: "abc", Dirty: true},
		flightEvents: 9,
	}
	if err := writePrometheus(&buf, m, st); err != nil {
		t.Fatal(err)
	}
	samples := parsePrometheus(t, buf.String())

	find := func(name string, labels map[string]string) *promSample {
		for i := range samples {
			if samples[i].name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if samples[i].labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				return &samples[i]
			}
		}
		return nil
	}

	if s := find("statsimd_requests_total", map[string]string{"endpoint": "/v1/simulate"}); s == nil || s.value != 3 {
		t.Errorf("requests_total{/v1/simulate} = %+v, want 3", s)
	}
	if s := find("statsimd_request_errors_total", map[string]string{"endpoint": "/v1/simulate"}); s == nil || s.value != 1 {
		t.Errorf("request_errors_total{/v1/simulate} = %+v, want 1", s)
	}
	if s := find("statsimd_build_info", map[string]string{"revision": "abc", "dirty": "true"}); s == nil || s.value != 1 {
		t.Errorf("build_info = %+v", s)
	}
	if s := find("statsimd_cache_lookups_total", map[string]string{"outcome": "hit"}); s == nil || s.value != 7 {
		t.Errorf("cache hits = %+v, want 7", s)
	}
	if s := find("statsimd_flight_events_total", nil); s == nil || s.value != 9 {
		t.Errorf("flight_events_total = %+v, want 9", s)
	}
	if s := find("statsimd_store_loads_total", nil); s != nil {
		t.Errorf("store families emitted without a store: %+v", s)
	}

	// Histogram invariants for the /v1/simulate series: cumulative,
	// non-decreasing buckets; +Inf == _count == 3; _sum ≈ 1.003s.
	var buckets []promSample
	for _, s := range samples {
		if s.name == "statsimd_request_duration_seconds_bucket" && s.labels["endpoint"] == "/v1/simulate" {
			buckets = append(buckets, s)
		}
	}
	if len(buckets) < 2 {
		t.Fatalf("only %d buckets for /v1/simulate", len(buckets))
	}
	prev := -1.0
	for _, b := range buckets {
		if b.value < prev {
			t.Fatalf("bucket series not cumulative: %v then %v", prev, b.value)
		}
		prev = b.value
	}
	if last := buckets[len(buckets)-1]; last.labels["le"] != "+Inf" || last.value != 3 {
		t.Errorf("+Inf bucket = %+v, want le=+Inf value=3", last)
	}
	sum := find("statsimd_request_duration_seconds_sum", map[string]string{"endpoint": "/v1/simulate"})
	if sum == nil || sum.value < 1.0 || sum.value > 1.01 {
		t.Errorf("_sum = %+v, want ≈1.003", sum)
	}
	if cnt := find("statsimd_request_duration_seconds_count", map[string]string{"endpoint": "/v1/simulate"}); cnt == nil || cnt.value != 3 {
		t.Errorf("_count = %+v, want 3", cnt)
	}
	if s := find("statsimd_stage_duration_seconds_count", map[string]string{"stage": "simulate"}); s == nil || s.value != 1 {
		t.Errorf("stage count = %+v, want 1", s)
	}
}

func TestPromEscape(t *testing.T) {
	if got := promEscapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Errorf("promEscapeLabel = %q", got)
	}
	if got := promEscapeHelp("x\\y\nz"); got != `x\\y\nz` {
		t.Errorf("promEscapeHelp = %q", got)
	}
}

// TestProgressFeed covers the broadcast feed: ordered delivery, late
// subscriber replay, and the post-terminal drop.
func TestProgressFeed(t *testing.T) {
	f := newProgressFeed("trace-1")
	grid := QuickGrid()[:2]
	results := []SweepResult{{Point: grid[0]}, {Point: grid[1]}}
	f.begin(len(grid), 0)
	f.publishPoints([]int{0}, results)

	evs, done, wake := f.next(0)
	if len(evs) != 2 || done || wake != nil {
		t.Fatalf("next(0) = %d events done=%v wake=%v", len(evs), done, wake)
	}
	if evs[0].TraceID != "trace-1" || evs[0].Type != "start" || evs[1].Type != "point" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[1].TraceID != "trace-1" || evs[1].Completed != 1 || *evs[1].Point != grid[0] {
		t.Fatalf("point event = %+v", evs[1])
	}

	// A subscriber that has caught up gets a wake channel to park on,
	// and wakes on the next publish.
	evs, done, wake = f.next(2)
	if len(evs) != 0 || done || wake == nil {
		t.Fatalf("caught-up next = %d events done=%v wake=%v", len(evs), done, wake)
	}
	published := make(chan struct{})
	go func() {
		<-wake
		close(published)
	}()
	f.finish(nil)
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber not woken")
	}

	// Late subscriber replays the whole history, sees the terminal event.
	evs, done, _ = f.next(0)
	if len(evs) != 3 || !done {
		t.Fatalf("replay = %d events done=%v", len(evs), done)
	}
	if end := evs[2]; end.Type != "done" || end.Total != 2 || end.Completed != 1 {
		t.Fatalf("done event = %+v", end)
	}
	// Post-terminal publishes are dropped.
	f.publishPoints([]int{1}, results)
	f.finish(errors.New("late"))
	if evs, _, _ := f.next(0); len(evs) != 3 || evs[2].Type != "done" {
		t.Fatalf("post-terminal event accepted: %d events", len(evs))
	}
}

// TestProgressRecordCompact pins the feed's per-point retention: a
// record is a pointer-free value of at most 80 bytes, and publishing a
// point into a pre-sized feed with no subscriber allocates nothing.
func TestProgressRecordCompact(t *testing.T) {
	if size := unsafe.Sizeof(progressRecord{}); size > 80 {
		t.Fatalf("progressRecord is %d bytes, want <= 80", size)
	}
	grid := PaperGrid()
	results := make([]SweepResult, len(grid))
	for i := range results {
		results[i] = SweepResult{Point: grid[i], Served: ServedFromStore}
	}
	f := newProgressFeed("compact")
	f.begin(len(grid), 0)
	batch := []int{0}
	allocs := testing.AllocsPerRun(200, func() {
		f.publishPoints(batch, results)
		batch[0]++
	})
	if allocs != 0 {
		t.Fatalf("publishing a point allocated %.1f times, want 0", allocs)
	}
}

// TestProgressFeedConcurrent publishes batches from several goroutines
// while a subscriber streams the feed as the SSE handler does (render
// outside the lock, park on the wake channel): it must see every point
// once, with completed counting 1..N in feed order, then the terminal
// event.
func TestProgressFeedConcurrent(t *testing.T) {
	const publishers, batches, batchSize = 4, 25, 8
	n := publishers * batches * batchSize
	grid := make([]SweepPoint, n)
	results := make([]SweepResult, n)
	for i := range grid {
		grid[i] = SweepPoint{RUU: i + 1, LSQ: 1, Decode: 1, Issue: 1, Commit: 1}
		results[i] = SweepResult{Point: grid[i]}
	}
	f := newProgressFeed("concurrent")
	f.begin(n, 0)

	got := make(chan []ProgressEvent, 1)
	go func() {
		var evs []ProgressEvent
		for next := 0; ; {
			batch, done, wake := f.next(next)
			evs = append(evs, batch...)
			next += len(batch)
			if len(batch) > 0 {
				continue
			}
			if done {
				break
			}
			<-wake
		}
		got <- evs
	}()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				base := (p*batches + b) * batchSize
				idx := make([]int, batchSize)
				for k := range idx {
					idx[k] = base + k
				}
				f.publishPoints(idx, results)
			}
		}(p)
	}
	wg.Wait()
	f.finish(nil)

	var evs []ProgressEvent
	select {
	case evs = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber never saw the terminal event")
	}
	if len(evs) != n+2 || evs[0].Type != "start" || evs[n+1].Type != "done" || evs[n+1].Completed != n {
		t.Fatalf("stream of %d events, want start + %d points + done", len(evs), n)
	}
	seen := make([]bool, n)
	for k, ev := range evs[1 : n+1] {
		if ev.Completed != k+1 || seen[ev.Index] || *ev.Point != grid[ev.Index] {
			t.Fatalf("point event %d = %+v", k, ev)
		}
		seen[ev.Index] = true
	}
}

// TestSweepRejectsPointOutOfRange: a point field a progress record
// cannot hold is a 400, before any work starts.
func TestSweepRejectsPointOutOfRange(t *testing.T) {
	_, ts := newTestServer(t)
	pts := []SweepPoint{{RUU: 1 << 40, LSQ: 8, Decode: 4, Issue: 4, Commit: 4}}
	code, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Profile: clusterTestSpec, Points: pts}, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "out of range") {
		t.Fatalf("status %d (%s), want 400 out of range", code, body)
	}
}

// TestProgressHub covers get-or-create feeds (subscribe-before-sweep)
// and capacity eviction preferring finished feeds.
func TestProgressHub(t *testing.T) {
	h := newProgressHub(2)
	a := h.feed("a")
	if h.feed("a") != a {
		t.Fatal("feed not memoised")
	}
	a.finish(nil)
	h.feed("b")
	h.feed("c") // over capacity: the finished "a" goes first
	if h.size() != 2 {
		t.Fatalf("hub size = %d, want 2", h.size())
	}
	if h.feed("a") == a {
		t.Fatal("finished feed not evicted")
	}
}

// newTelemetryServer builds a Server wired for telemetry tests: tiny
// pool, JSON logs into the returned buffer, manifests into a temp dir.
func newTelemetryServer(t *testing.T, buf *syncLogBuffer) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	logger := slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, err := New(Options{Workers: 2, Logger: logger, ManifestDir: dir, FlightRecorderSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	return s, dir
}

type syncLogBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncLogBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncLogBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

// TestTraceIDEndToEnd follows one trace ID through every telemetry
// surface the server offers: the response header, the structured log,
// the flight recorder, and the on-disk run manifest.
func TestTraceIDEndToEnd(t *testing.T) {
	var buf syncLogBuffer
	s, manifestDir := newTelemetryServer(t, &buf)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"profile":{"workload":"gcc","k":1,"n":100000},"target":20000}`
	req, _ := http.NewRequest("POST", srv.URL+"/v1/simulate", strings.NewReader(body))
	req.Header.Set("X-Request-Id", "e2e-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("simulate status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "e2e-trace-42" {
		t.Fatalf("response X-Request-Id = %q", got)
	}

	// Flight recorder: the event exists, with stage timings attached.
	evs := s.flight.Recent(0)
	if len(evs) != 1 {
		t.Fatalf("flight events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.TraceID != "e2e-trace-42" || ev.Endpoint != "/v1/simulate" || ev.Status != 200 {
		t.Fatalf("flight event = %+v", ev)
	}
	if len(ev.StageMS) == 0 || ev.StageMS["simulate"] <= 0 {
		t.Fatalf("flight event stage timings = %+v", ev.StageMS)
	}

	// Structured log: at least the request line plus resolution debug
	// lines, all keyed by the trace ID.
	reqLines := 0
	for _, line := range buf.lines(t) {
		if line["trace_id"] == "e2e-trace-42" {
			reqLines++
		}
	}
	if reqLines < 2 {
		t.Fatalf("log lines with trace_id = %d, want >= 2 (request + resolution)", reqLines)
	}

	// Manifest: named by trace ID, stamped with it, carrying metrics.
	data, err := os.ReadFile(filepath.Join(manifestDir, "v1-simulate-e2e-trace-42.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.TraceID != "e2e-trace-42" || man.Metrics == nil || man.Metrics.IPC <= 0 || len(man.Stages) == 0 {
		t.Fatalf("manifest = %+v", man)
	}
}

// TestFlightEventRecordsOutcome pins what a request's flight event and
// run manifest record about how the daemon served it: a profile that
// needed a retry, a simulate served from the SFG cache and one from the
// result store, a sweep replayed from its journal and one answered by
// the surrogate.
func TestFlightEventRecordsOutcome(t *testing.T) {
	in := fault.New(1)
	in.Set(SiteProfileJob, fault.Rule{Prob: 1, Times: 1, Err: fault.ErrInjected})
	manifestDir := t.TempDir()
	svc, ts := newTestServerOpts(t, Options{
		Workers: 4, CacheSize: 4, JobTimeout: time.Minute,
		CacheDir: t.TempDir(), ManifestDir: manifestDir, SurrogateMaxCI: 0.75,
		Retry: RetryPolicy{Attempts: 3}, Faults: in,
	})
	var training []SweepPoint
	for _, ruu := range []int{16, 24, 32, 48, 64, 96, 128} {
		for _, w := range []int{2, 4, 8} {
			training = append(training, SweepPoint{RUU: ruu, LSQ: ruu / 2, Decode: w, Issue: w, Commit: w})
		}
	}
	novel := []SweepPoint{
		{RUU: 20, LSQ: 10, Decode: 4, Issue: 4, Commit: 4},
		{RUU: 40, LSQ: 20, Decode: 4, Issue: 4, Commit: 4},
		{RUU: 80, LSQ: 40, Decode: 4, Issue: 4, Commit: 4},
	}
	simulate := SimulateRequest{Profile: oracleTestSpec, Target: 10_000}
	train := SweepRequest{Profile: oracleTestSpec, Points: training, Target: 10_000}

	type outcome struct {
		CacheHit                                   bool
		Retries, Resumed, StoreHits, SurrogateHits int
	}
	for _, tc := range []struct {
		id, path string
		body     any
		want     outcome
		oracle   *obs.ManifestOracle
	}{
		{"outcome-retried", "/v1/profile", ProfileRequest{oracleTestSpec}, outcome{Retries: 1}, nil},
		{"outcome-cache-hit", "/v1/simulate", simulate, outcome{CacheHit: true}, nil},
		{"outcome-store-hit", "/v1/simulate", simulate, outcome{CacheHit: true, StoreHits: 1},
			&obs.ManifestOracle{StoreHits: 1}},
		{"outcome-train", "/v1/sweep", train, outcome{CacheHit: true}, nil},
		{"outcome-replayed", "/v1/sweep", train, outcome{CacheHit: true, Resumed: len(training)}, nil},
		{"outcome-surrogate", "/v1/sweep", SweepRequest{Profile: oracleTestSpec, Points: novel, Target: 10_000},
			outcome{CacheHit: true, SurrogateHits: len(novel)},
			&obs.ManifestOracle{SurrogateHits: len(novel), Estimated: true}},
	} {
		if code, body := postJSONTraced(t, ts.URL+tc.path, tc.id, tc.body, nil); code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.id, code, body)
		}
		var events []obs.RequestEvent
		for _, ev := range svc.flight.Recent(0) {
			if ev.TraceID == tc.id {
				events = append(events, ev)
			}
		}
		if len(events) != 1 {
			t.Fatalf("%s: %d flight events, want 1", tc.id, len(events))
		}
		ev := events[0]
		if ev.Endpoint != tc.path || ev.Status != http.StatusOK || ev.Error != "" {
			t.Errorf("%s: flight event %+v", tc.id, ev)
		}
		got := outcome{ev.CacheHit, ev.Retries, ev.Resumed, ev.StoreHits, ev.SurrogateHits}
		if got != tc.want {
			t.Errorf("%s: flight event outcome %+v, want %+v", tc.id, got, tc.want)
		}
		name := strings.ReplaceAll(strings.TrimPrefix(tc.path, "/"), "/", "-") + "-" + tc.id + ".json"
		m := readManifest(t, filepath.Join(manifestDir, name))
		if m.TraceID != tc.id {
			t.Errorf("%s: manifest trace ID %q", tc.id, m.TraceID)
		}
		if (m.Oracle == nil) != (tc.oracle == nil) || m.Oracle != nil && *m.Oracle != *tc.oracle {
			t.Errorf("%s: manifest oracle block %+v, want %+v", tc.id, m.Oracle, tc.oracle)
		}
	}
}

// TestTraceIDMintedWhenHeaderUnusable: a missing or malformed inbound
// X-Request-Id gets a fresh server-minted ID, never an echo.
func TestTraceIDMintedWhenHeaderUnusable(t *testing.T) {
	var buf syncLogBuffer
	s, _ := newTelemetryServer(t, &buf)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, inbound := range []string{"", "has space", "quote\"inside", strings.Repeat("x", 65)} {
		req, _ := http.NewRequest("GET", srv.URL+"/v1/workloads", nil)
		if inbound != "" {
			req.Header.Set("X-Request-Id", inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get("X-Request-Id")
		if got == "" || got == inbound {
			t.Errorf("inbound %q: response trace ID %q not freshly minted", inbound, got)
		}
	}
}

// TestDebugRequestsEndpoint covers the flight-recorder HTTP surface:
// ring metadata, newest-first order, the ?n= bound and its validation.
func TestDebugRequestsEndpoint(t *testing.T) {
	var buf syncLogBuffer
	s, _ := newTelemetryServer(t, &buf)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest("GET", srv.URL+"/v1/workloads", nil)
		req.Header.Set("X-Request-Id", fmt.Sprintf("dbg-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var dbg DebugRequestsResponse
	resp, err := http.Get(srv.URL + "/v1/debug/requests?n=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dbg.Total != 3 || dbg.Capacity != 32 || len(dbg.Events) != 2 {
		t.Fatalf("debug response = total %d capacity %d events %d", dbg.Total, dbg.Capacity, len(dbg.Events))
	}
	if dbg.Events[0].TraceID != "dbg-2" || dbg.Events[1].TraceID != "dbg-1" {
		t.Fatalf("events not newest-first: %q, %q", dbg.Events[0].TraceID, dbg.Events[1].TraceID)
	}

	resp, err = http.Get(srv.URL + "/v1/debug/requests?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus n accepted: %d", resp.StatusCode)
	}
}

// TestSweepProgressSSE runs a sweep with a chosen trace ID while a
// subscriber streams its progress, checking the full event sequence and
// the per-event completion counters.
func TestSweepProgressSSE(t *testing.T) {
	var buf syncLogBuffer
	s, _ := newTelemetryServer(t, &buf)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sseResp, err := http.Get(srv.URL + "/v1/sweep/progress?id=sse-sweep")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	events := make(chan ProgressEvent, 32)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev ProgressEvent
				if json.Unmarshal([]byte(data), &ev) == nil {
					events <- ev
				}
			}
		}
	}()

	body := `{"profile":{"workload":"gcc","k":1,"n":100000},"grid":"quick","target":20000}`
	req, _ := http.NewRequest("POST", srv.URL+"/v1/sweep", strings.NewReader(body))
	req.Header.Set("X-Request-Id", "sse-sweep")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}

	var got []ProgressEvent
	deadline := time.After(60 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				goto doneReading
			}
			got = append(got, ev)
		case <-deadline:
			t.Fatal("SSE stream did not finish")
		}
	}
doneReading:
	if len(got) != 11 { // start + 9 points + done
		t.Fatalf("SSE events = %d, want 11 (%+v)", len(got), got)
	}
	if got[0].Type != "start" || got[0].Total != 9 || got[0].Resumed != 0 {
		t.Fatalf("start event = %+v", got[0])
	}
	seenIdx := map[int]bool{}
	for i, ev := range got[1:10] {
		if ev.Type != "point" || ev.Point == nil || ev.Metrics == nil {
			t.Fatalf("point event %d = %+v", i, ev)
		}
		if ev.Completed != i+1 {
			t.Fatalf("point event %d completed = %d", i, ev.Completed)
		}
		if ev.TraceID != "sse-sweep" {
			t.Fatalf("point event trace_id = %q", ev.TraceID)
		}
		seenIdx[ev.Index] = true
	}
	if len(seenIdx) != 9 {
		t.Fatalf("point indices not distinct: %v", seenIdx)
	}
	last := got[10]
	if last.Type != "done" || last.Total != 9 || last.Completed != 9 {
		t.Fatalf("done event = %+v", last)
	}
}

// TestSweepProgressRequiresID pins the 400 on a missing/invalid id.
func TestSweepProgressRequiresID(t *testing.T) {
	var buf syncLogBuffer
	s, _ := newTelemetryServer(t, &buf)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, q := range []string{"", "?id=", "?id=bad%20id"} {
		resp, err := http.Get(srv.URL + "/v1/sweep/progress" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("progress%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestHealthzBuildInfo: /healthz reports provenance and cache shape.
func TestHealthzBuildInfo(t *testing.T) {
	var buf syncLogBuffer
	s, _ := newTelemetryServer(t, &buf)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var h HealthResponse
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Build.GoVersion == "" {
		t.Error("healthz build.go_version empty")
	}
	if h.CacheCapacity != 16 {
		t.Errorf("healthz cache_capacity = %d, want 16", h.CacheCapacity)
	}
}
