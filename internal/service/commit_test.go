package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/resultstore"
)

// TestSweepCommitCounts pins group commit on the daemon's sweep path by
// counting evaluations of the journal's fault site (one per commit)
// with no rule installed: a 1,792-point sweep answered entirely from
// the result store commits its journal exactly once, and a simulated
// sweep commits once per lockstep group of the plan.
func TestSweepCommitCounts(t *testing.T) {
	in := fault.New(1)
	svc, ts := newTestServerOpts(t, Options{
		Workers: 2, CacheSize: 4, JobTimeout: time.Minute, CacheDir: t.TempDir(), Faults: in,
	})

	// Seed the result store with every paper-grid point, so the sweep
	// below is all store hits without simulating 1,792 points first.
	const target, simSeed = 10_000, 1
	g, pk, _, err := svc.resolveProfile(context.Background(), oracleTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	red := core.ReductionFor(g, target)
	base := ConfigSpec{}.apply(cpu.DefaultConfig())
	m, err := core.StatSim(base, g, red, simSeed)
	if err != nil {
		t.Fatal(err)
	}
	grid := PaperGrid()
	keys := make([]resultstore.Key, len(grid))
	ms := make([]core.Metrics, len(grid))
	for i, p := range grid {
		keys[i], ms[i] = oracleKey(pk, p.Apply(base), red, simSeed), m
	}
	if err := svc.oracle.store.PutBatch(keys, ms); err != nil {
		t.Fatal(err)
	}

	var hit SweepResponse
	if code, body := postJSON(t, ts.URL+"/v1/sweep",
		SweepRequest{Profile: oracleTestSpec, Grid: "paper", Target: target, SimSeed: simSeed}, &hit); code != 200 {
		t.Fatalf("store-hit sweep: %d %s", code, body)
	}
	if hit.FromStore != len(grid) {
		t.Fatalf("from_store = %d, want %d", hit.FromStore, len(grid))
	}
	if got := in.Hits(SiteJournalAppend); got != 1 {
		t.Errorf("all-store-hit sweep made %d journal commits, want 1", got)
	}
	if got := in.Hits(SiteSweepJob); got != 0 {
		t.Errorf("all-store-hit sweep simulated %d points", got)
	}

	// A fresh reduction misses the store: every point is simulated.
	const simTarget = 20_000
	before := in.Hits(SiteJournalAppend)
	if code, body := postJSON(t, ts.URL+"/v1/sweep",
		SweepRequest{Profile: oracleTestSpec, Grid: "quick", Target: simTarget, SimSeed: simSeed}, nil); code != 200 {
		t.Fatalf("simulated sweep: %d %s", code, body)
	}
	groups := planGroups(QuickGrid(), core.ReductionFor(g, simTarget), simSeed, 2)
	if got := in.Hits(SiteJournalAppend) - before; got != uint64(len(groups)) {
		t.Errorf("simulated sweep made %d journal commits, want %d (one per lockstep group)", got, len(groups))
	}
}

// TestSweepJournalCleanReopenInPlace: reopening a journal that replayed
// cleanly appends to the same file — no compacting rewrite through a
// temp file — while a torn one is still compacted.
func TestSweepJournalCleanReopenInPlace(t *testing.T) {
	g := testGraph(t)
	base, points, r, seed := quickSweepInputs(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")
	id := SweepFingerprint(g, base, points, r, seed)
	j, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || after.Size() != before.Size() {
		t.Error("clean journal was rewritten on reopen")
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, ".tmp-journal-*")); len(tmp) != 0 {
		t.Errorf("clean reopen left temp files: %v", tmp)
	}
	if j2.Resumed() != len(points) || j2.Dropped() != 0 {
		t.Errorf("resumed/dropped = %d/%d, want %d/0", j2.Resumed(), j2.Dropped(), len(points))
	}
	j2.Close()

	// A torn tail still goes through the compacting rewrite.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	torn, _ := os.Stat(path)
	j3, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if compacted, _ := os.Stat(path); os.SameFile(torn, compacted) {
		t.Error("torn journal was not compacted")
	}
}

// TestSweepJournalBatchCrashCutMatrix crashes mid-commit at every byte
// offset of a multi-point batch. Reopening must recover exactly the
// whole, CRC-valid records before the cut (Done never returns a record
// past it), and the resumed sweep over each cut must be byte-identical
// to an uninterrupted run.
func TestSweepJournalBatchCrashCutMatrix(t *testing.T) {
	g := testGraph(t)
	base := cpu.DefaultConfig()
	points := QuickGrid()[:3]
	// Tiny synthetic traces keep one resume per cut cheap.
	const r, seed = 500, 1
	pool := NewPool(1) // one worker plans one group: one commit
	defer pool.Drain(context.Background())
	ctx := context.Background()

	golden, _, err := Sweep(ctx, base, g, points, r, seed, SweepOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON, _ := json.Marshal(golden)

	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.journal")
	id := SweepFingerprint(g, base, points, r, seed)
	in := fault.New(1)
	j, err := OpenSweepJournal(ref, id, len(points), in)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sweep(ctx, base, g, points, r, seed, SweepOptions{Pool: pool, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := in.Hits(SiteJournalAppend); got != 1 {
		t.Fatalf("journal made %d commits, want the whole sweep in 1", got)
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// The batch: every line after the header. ends[k] is where record
	// k's content ends (its newline excluded); order[k] its point index.
	headerEnd := bytes.IndexByte(data, '\n') + 1
	var ends, order []int
	for off := headerEnd; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		var line journalLine
		if err := json.Unmarshal(data[off:off+nl], &line); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, off+nl)
		order = append(order, line.Index)
		off += nl + 1
	}
	if len(ends) != len(points) {
		t.Fatalf("batch holds %d records, want %d", len(ends), len(points))
	}

	path := filepath.Join(dir, "cut.journal")
	for cut := headerEnd; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenSweepJournal(path, id, len(points), nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		done := j2.Done()
		if len(done) != whole {
			j2.Close()
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(done), whole)
		}
		for _, i := range order[:whole] {
			if m, ok := done[i]; !ok || m != golden[i].Metrics {
				j2.Close()
				t.Fatalf("cut %d: record for point %d missing or wrong", cut, i)
			}
		}
		results, _, err := Sweep(ctx, base, g, points, r, seed, SweepOptions{Pool: pool, Journal: j2})
		j2.Close()
		if err != nil {
			t.Fatalf("cut %d: resume failed: %v", cut, err)
		}
		if got, _ := json.Marshal(results); !bytes.Equal(got, goldenJSON) {
			t.Fatalf("cut %d: resumed sweep differs from the uninterrupted run", cut)
		}
	}
}
