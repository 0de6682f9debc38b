package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/lockstep"
)

func quickSweepInputs(t *testing.T) (cpu.Config, []SweepPoint, uint64, uint64) {
	t.Helper()
	return cpu.DefaultConfig(), QuickGrid(), 4, uint64(1)
}

func TestSweepFingerprintSensitivity(t *testing.T) {
	g := testGraph(t)
	base, points, r, seed := quickSweepInputs(t)
	id := SweepFingerprint(g, base, points, r, seed)
	if id != SweepFingerprint(g, base, points, r, seed) {
		t.Error("fingerprint not deterministic")
	}
	// The immediate-update profile of the same stream has the same
	// shape (k, instructions, blocks, nodes, edges) but other branch
	// statistics, so other results.
	w, err := core.LoadWorkload("vpr")
	if err != nil {
		t.Fatal(err)
	}
	immediate, err := core.Profile(cpu.DefaultConfig(), w.Stream(1, 0, 20_000), core.ProfileOptions{K: 1, ImmediateUpdate: true})
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.RUUSize++
	for name, changed := range map[string]string{
		"immediate": SweepFingerprint(immediate, base, points, r, seed),
		"config":    SweepFingerprint(g, other, points, r, seed),
		"points":    SweepFingerprint(g, base, points[1:], r, seed),
		"r":         SweepFingerprint(g, base, points, r+1, seed),
		"seed":      SweepFingerprint(g, base, points, r, seed+1),
	} {
		if changed == id {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
}

// TestSweepJournalResumeByteIdentical interrupts a sweep partway,
// reopens the journal, finishes it, and requires the merged results to
// serialise byte-for-byte like an uninterrupted serial run — the
// crash-safety contract.
func TestSweepJournalResumeByteIdentical(t *testing.T) {
	g := testGraph(t)
	base, points, r, seed := quickSweepInputs(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	id := SweepFingerprint(g, base, points, r, seed)

	// Uninterrupted serial reference.
	serial := NewPool(1)
	defer serial.Drain(context.Background())
	golden, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Pool: serial})
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON, err := json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}

	// First run: 4 of 9 points die on an injected fault ("crash").
	in := fault.New(9)
	in.Set(SiteSweepJob, fault.Rule{Prob: 1, Times: 4, Err: fault.ErrInjected})
	j1, err := OpenSweepJournal(path, id, len(points), in)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Journal: j1, Faults: in}); err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	j1.Close()
	survivors := len(j1.Done())
	if survivors != len(points)-4 {
		t.Fatalf("journal holds %d points, want %d", survivors, len(points)-4)
	}

	// Restart: a fresh journal handle resumes, recomputing only the
	// missing points.
	j2, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumed() != survivors {
		t.Errorf("resumed %d, want %d", j2.Resumed(), survivors)
	}
	results, resumed, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != survivors {
		t.Errorf("Sweep resumed %d, want %d", resumed, survivors)
	}
	gotJSON, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(goldenJSON) {
		t.Error("resumed sweep differs from uninterrupted serial run")
	}
	// Every point exactly once.
	if got := len(j2.Done()); got != len(points) {
		t.Errorf("journal holds %d points, want %d", got, len(points))
	}

	// A third run is all-resume: zero simulations.
	j3, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	again, resumed, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Journal: j3})
	if err != nil || resumed != len(points) {
		t.Fatalf("full resume: resumed=%d err=%v", resumed, err)
	}
	againJSON, _ := json.Marshal(again)
	if string(againJSON) != string(goldenJSON) {
		t.Error("fully resumed sweep differs from reference")
	}
}

// TestSweepJournalResumeMidCohort pins the journal contract against
// the lockstep engine specifically: with a single worker the whole grid
// plans into ONE lockstep group, so injected failures strike in the
// middle of a shared-trace cohort. Later points of the same cohort must
// still complete and journal, and the resumed sweep — whose pending
// points re-plan into a smaller cohort with different lockstep batching
// — must serialise byte-for-byte like an uninterrupted run.
func TestSweepJournalResumeMidCohort(t *testing.T) {
	g := testGraph(t)
	base, points, r, seed := quickSweepInputs(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	id := SweepFingerprint(g, base, points, r, seed)

	serial := NewPool(1)
	defer serial.Drain(context.Background())
	golden, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Pool: serial})
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON, err := json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}

	// One worker => Plan(parallel=1) => one group holding the whole
	// cohort; the first 3 points die inside it.
	in := fault.New(11)
	in.Set(SiteSweepJob, fault.Rule{Prob: 1, Times: 3, Err: fault.ErrInjected})
	one := NewPool(1)
	defer one.Drain(context.Background())
	j1, err := OpenSweepJournal(path, id, len(points), in)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Pool: one, Journal: j1, Faults: in}); err == nil {
		t.Fatal("mid-cohort failures reported success")
	}
	j1.Close()
	if got := in.Fired(SiteSweepJob); got != 3 {
		t.Fatalf("fault site injected %d failures, want exactly 3 (one per doomed point)", got)
	}
	// The cohort's surviving members — including points AFTER the failed
	// ones in the same lockstep group — must all have journaled.
	if got := len(j1.Done()); got != len(points)-3 {
		t.Fatalf("journal holds %d points after mid-cohort crash, want %d", got, len(points)-3)
	}

	j2, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	results, resumed, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Pool: one, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != len(points)-3 {
		t.Errorf("resumed %d, want %d", resumed, len(points)-3)
	}
	gotJSON, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, goldenJSON) {
		t.Error("mid-cohort resumed sweep differs from uninterrupted run")
	}
}

// TestSweepJournalTornTail simulates a crash mid-append: a truncated
// final line must be dropped (and its point recomputed), not poison the
// journal.
func TestSweepJournalTornTail(t *testing.T) {
	g := testGraph(t)
	base, points, r, seed := quickSweepInputs(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	id := SweepFingerprint(g, base, points, r, seed)

	j, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-25], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatalf("torn tail rejected the whole journal: %v", err)
	}
	defer j2.Close()
	if j2.Dropped() != 1 {
		t.Errorf("dropped %d lines, want 1", j2.Dropped())
	}
	if j2.Resumed() != len(points)-1 {
		t.Errorf("resumed %d, want %d", j2.Resumed(), len(points)-1)
	}
	results, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Journal: j2})
	if err != nil || len(results) != len(points) {
		t.Fatalf("recovery sweep: %d results, err=%v", len(results), err)
	}
}

// TestSweepJournalTruncatedFinalRecordExhaustive hardens the torn-tail
// contract: a crash mid-append can cut the final record at ANY byte
// offset — including right after the previous newline (record entirely
// gone) and right before its own newline (record complete but
// unterminated). Every cut must reopen cleanly, resume all intact
// records, and complete to results byte-identical to the uninterrupted
// run.
func TestSweepJournalTruncatedFinalRecordExhaustive(t *testing.T) {
	g := testGraph(t)
	base, points, r, seed := quickSweepInputs(t)
	dir := t.TempDir()
	id := SweepFingerprint(g, base, points, r, seed)

	ref := filepath.Join(dir, "ref.journal")
	j, err := OpenSweepJournal(ref, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	golden, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	goldenJSON, err := json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatalf("journal does not end in a newline")
	}
	lastStart := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1

	for cut := lastStart; cut < len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.journal", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenSweepJournal(path, id, len(points), nil)
		if err != nil {
			t.Fatalf("cut at byte %d rejected the whole journal: %v", cut, err)
		}
		resumed := j2.Resumed()
		// Cutting exactly before the final newline leaves a complete,
		// CRC-valid record; the reader may legitimately keep it.
		if resumed != len(points)-1 && !(cut == len(data)-1 && resumed == len(points)) {
			j2.Close()
			t.Fatalf("cut at byte %d: resumed %d of %d", cut, resumed, len(points))
		}
		results, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Journal: j2})
		j2.Close()
		if err != nil {
			t.Fatalf("cut at byte %d: recovery sweep failed: %v", cut, err)
		}
		gotJSON, _ := json.Marshal(results)
		if !bytes.Equal(gotJSON, goldenJSON) {
			t.Fatalf("cut at byte %d: recovered results differ from uninterrupted run", cut)
		}
	}
}

func TestSweepJournalRejectsMismatch(t *testing.T) {
	g := testGraph(t)
	base, points, r, seed := quickSweepInputs(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	id := SweepFingerprint(g, base, points, r, seed)
	j, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	otherID := SweepFingerprint(g, base, points, r, seed+1)
	if _, err := OpenSweepJournal(path, otherID, len(points), nil); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("different sweep accepted a foreign journal: %v", err)
	}
	if _, err := OpenSweepJournal(path, id, len(points)-1, nil); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("different point count accepted: %v", err)
	}
	// Pure garbage where a journal should be.
	garbage := filepath.Join(t.TempDir(), "garbage.journal")
	if err := os.WriteFile(garbage, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSweepJournal(garbage, id, len(points), nil); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("garbage file accepted as journal: %v", err)
	}
}

// TestSweepJournalAppendFailureTolerated: a failing journal commit must
// not fail the sweep. Commits are per lockstep group, so a failed one
// drops exactly one group's points — no more, no fewer — and those are
// simply recomputed on the next resume, byte-identically.
func TestSweepJournalAppendFailureTolerated(t *testing.T) {
	g := testGraph(t)
	base, points, r, seed := quickSweepInputs(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	id := SweepFingerprint(g, base, points, r, seed)

	// Two workers plan the 9 points into two groups (5 + 4): two commits.
	pool := NewPool(2)
	defer pool.Drain(context.Background())
	groups := planGroups(points, r, seed, 2)
	if len(groups) != 2 {
		t.Fatalf("plan has %d groups, want 2", len(groups))
	}

	in := fault.New(5)
	in.Set(SiteJournalAppend, fault.Rule{Prob: 1, Times: 1, Err: fault.ErrInjected})
	j, err := OpenSweepJournal(path, id, len(points), in)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Pool: pool, Journal: j})
	if err != nil {
		t.Fatalf("a failed commit failed the sweep: %v", err)
	}
	if len(results) != len(points) {
		t.Fatalf("%d results, want %d", len(results), len(points))
	}
	if hits, fired := in.Hits(SiteJournalAppend), in.Fired(SiteJournalAppend); hits != 2 || fired != 1 {
		t.Fatalf("journal commits: %d attempted, %d failed; want 2 and 1", hits, fired)
	}
	j.Close()

	j2, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	done := j2.Done()
	var dropped []int
	for i := range points {
		if _, ok := done[i]; !ok {
			dropped = append(dropped, i)
		}
	}
	if fmt.Sprint(dropped) != fmt.Sprint(groups[0].Indices) && fmt.Sprint(dropped) != fmt.Sprint(groups[1].Indices) {
		t.Fatalf("dropped points %v, want exactly one whole group of %v", dropped, groups)
	}

	again, resumed, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Pool: pool, Journal: j2})
	if err != nil || resumed != len(points)-len(dropped) {
		t.Fatalf("resume: resumed=%d err=%v, want %d", resumed, err, len(points)-len(dropped))
	}
	want, _ := json.Marshal(results)
	got, _ := json.Marshal(again)
	if !bytes.Equal(got, want) {
		t.Error("resumed sweep differs from the run whose commit failed")
	}
}

// planGroups is the lockstep plan the local executor makes for a whole
// grid on a pool of the given width.
func planGroups(points []SweepPoint, r, seed uint64, workers int) []lockstep.Group {
	pts := make([]lockstep.Point, len(points))
	for i := range points {
		pts[i] = lockstep.Point{Key: lockstep.Key{K: 1, R: r, Seed: seed}, Index: i}
	}
	return lockstep.Plan(pts, lockstep.Options{Parallel: workers})
}

func TestSweepJournalDuplicateConflictDetected(t *testing.T) {
	g := testGraph(t)
	base, points, r, seed := quickSweepInputs(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	id := SweepFingerprint(g, base, points, r, seed)
	j, err := OpenSweepJournal(path, id, len(points), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sweep(context.Background(), base, g, points, r, seed, SweepOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Append a conflicting record for point 0 (valid CRC, wrong value).
	m := j.Done()[0]
	m.Cycles++
	line, err := encodePoint(0, m)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "%s\n", line)
	f.Close()

	if _, err := OpenSweepJournal(path, id, len(points), nil); err == nil {
		t.Error("conflicting duplicate accepted silently")
	}
}
