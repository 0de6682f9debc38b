package service

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
)

var updateSSE = flag.Bool("update-sse", false, "rewrite the SSE progress goldens under testdata/sse/")

// sseSubscribe opens GET /v1/sweep/progress for id and returns a
// channel that delivers the stream's complete bytes once the server
// ends it (after the terminal event).
func sseSubscribe(t *testing.T, base, id string) <-chan []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweep/progress?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte, 1)
	go func() {
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		out <- data
	}()
	return out
}

func sseWait(t *testing.T, ch <-chan []byte) []byte {
	t.Helper()
	select {
	case data := <-ch:
		return data
	case <-time.After(60 * time.Second):
		t.Fatal("SSE stream did not finish")
		return nil
	}
}

// checkSSEGolden compares one stream's bytes with testdata/sse/name.sse
// (rewriting it under -update-sse).
func checkSSEGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "sse", name+".sse")
	if *updateSSE {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-sse to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: SSE stream differs from golden\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestSweepProgressGolden pins the /v1/sweep/progress wire bytes for a
// fixed X-Request-Id across every event kind: start, simulated points,
// store-served points, surrogate (estimated) points, done, and error —
// plus a late subscriber replaying each finished feed, which must see
// exactly what the live subscriber saw. One worker makes completion
// order (and so the completed counters) deterministic.
func TestSweepProgressGolden(t *testing.T) {
	in := fault.New(1)
	_, ts := newTestServerOpts(t, Options{
		Workers: 1, CacheSize: 4, JobTimeout: time.Minute,
		CacheDir: t.TempDir(), SurrogateMaxCI: 100, Faults: in,
	})
	grid := QuickGrid()
	reversedWithNovel := make([]SweepPoint, 0, 2*len(grid))
	for i := len(grid) - 1; i >= 0; i-- {
		p := grid[i]
		reversedWithNovel = append(reversedWithNovel, p)
		// An interior point the store has never seen: only the surrogate
		// (gate wide open, trained by the first sweep) can answer it.
		p.RUU += 8
		p.LSQ = p.RUU / 2
		reversedWithNovel = append(reversedWithNovel, p)
	}

	run := func(name string, req SweepRequest, wantStatus int) {
		t.Helper()
		id := "sse-golden-" + name
		live := sseSubscribe(t, ts.URL, id)
		code, body := postJSONTraced(t, ts.URL+"/v1/sweep", id, req, nil)
		if code != wantStatus {
			t.Fatalf("%s: sweep status %d, want %d: %s", name, code, wantStatus, body)
		}
		got := sseWait(t, live)
		checkSSEGolden(t, name, got)
		if late := sseWait(t, sseSubscribe(t, ts.URL, id)); !bytes.Equal(late, got) {
			t.Errorf("%s: late subscriber replay differs from the live stream\nlate:\n%s\nlive:\n%s", name, late, got)
		}
	}

	// Simulated points, then store hits interleaved with surrogate
	// estimates.
	run("simulated", SweepRequest{Profile: oracleTestSpec, Points: grid, Target: 10_000}, http.StatusOK)
	run("store-surrogate", SweepRequest{Profile: oracleTestSpec, Points: reversedWithNovel, Target: 10_000}, http.StatusOK)

	// A different reduction is a fresh surrogate context, so every point
	// reaches the executor; the first two die there and fail the sweep
	// after the rest completed.
	in.Set(SiteSweepJob, fault.Rule{Prob: 1, Times: 2, Err: fault.ErrInjected})
	defer in.Clear(SiteSweepJob)
	run("error", SweepRequest{Profile: oracleTestSpec, Points: grid, Target: 20_000}, http.StatusInternalServerError)
}
