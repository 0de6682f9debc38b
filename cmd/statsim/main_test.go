package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestConfigFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	mk := configFlags(fs)
	if err := fs.Parse([]string{"-ruu", "64", "-lsq", "16", "-width", "4", "-perfect-caches"}); err != nil {
		t.Fatal(err)
	}
	cfg := mk()
	if cfg.RUUSize != 64 || cfg.LSQSize != 16 || cfg.IssueWidth != 4 || !cfg.PerfectCaches {
		t.Errorf("flags not applied: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("flag-built config invalid: %v", err)
	}
}

func TestWorkloadFlagsBuiltin(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	load := workloadFlags(fs)
	if err := fs.Parse([]string{"-benchmark", "vpr"}); err != nil {
		t.Fatal(err)
	}
	w, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "vpr" {
		t.Errorf("loaded %q", w.Name)
	}
}

func TestWorkloadFlagsJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.json")
	if err := os.WriteFile(path, []byte(`{"Name":"custom","Seed":3,"TargetBlocks":20}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	load := workloadFlags(fs)
	if err := fs.Parse([]string{"-workload-file", path}); err != nil {
		t.Fatal(err)
	}
	w, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "custom" || len(w.Prog.Blocks) == 0 {
		t.Errorf("custom workload broken: %q, %d blocks", w.Name, len(w.Prog.Blocks))
	}
	// Missing file must error cleanly.
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	load2 := workloadFlags(fs2)
	if err := fs2.Parse([]string{"-workload-file", filepath.Join(dir, "nope.json")}); err != nil {
		t.Fatal(err)
	}
	if _, err := load2(); err == nil {
		t.Error("missing workload file accepted")
	}
}

func TestProfileGenerateSimulateFlow(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.sfg")
	trc := filepath.Join(dir, "t.trc")
	if err := cmdProfile([]string{"-benchmark", "vpr", "-n", "30000", "-o", prof}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGenerate([]string{"-profile", prof, "-target", "6000", "-o", trc}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSimulate([]string{"-trace-file", trc}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSimulate([]string{"-profile", prof, "-target", "6000"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSimulate(nil); err == nil {
		t.Error("simulate without inputs accepted")
	}
	if err := cmdGenerate(nil); err == nil {
		t.Error("generate without inputs accepted")
	}
	if err := cmdProfile([]string{"-benchmark", "vpr"}); err == nil {
		t.Error("profile without -o accepted")
	}
}

func TestCmdInspect(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.sfg")
	if err := cmdProfile([]string{"-benchmark", "vpr", "-n", "20000", "-o", prof}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInspect([]string{"-profile", prof, "-top", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInspect(nil); err == nil {
		t.Error("inspect without -profile accepted")
	}
	if err := cmdInspect([]string{"-profile", filepath.Join(dir, "missing")}); err == nil {
		t.Error("missing profile accepted")
	}
}

func TestCmdListAndPersonality(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
	if err := cmdPersonality([]string{"-benchmark", "gcc"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPersonality([]string{"-benchmark", "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCmdSweep(t *testing.T) {
	if err := cmdSweep([]string{"-benchmark", "vpr", "-n", "30000", "-grid", "quick", "-target", "5000"}); err != nil {
		t.Fatal(err)
	}
	// Saved profiles drive the same path without re-profiling.
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.sfg")
	if err := cmdProfile([]string{"-benchmark", "vpr", "-n", "30000", "-o", prof}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-profile", prof, "-grid", "quick", "-target", "5000", "-top", "3", "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	// With -profile the manifest records the saved profile's k and
	// length, not the ignored -k/-n defaults, and no execution seed.
	prof2 := filepath.Join(dir, "k2.sfg")
	if err := cmdProfile([]string{"-benchmark", "vpr", "-k", "2", "-n", "30000", "-o", prof2}); err != nil {
		t.Fatal(err)
	}
	stats := filepath.Join(dir, "sweep.json")
	if err := cmdSweep([]string{"-profile", prof2, "-grid", "quick", "-target", "5000", "-stats", stats}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, raw)
	}
	if man.K != 2 || man.StreamLength != 30000 || man.Seed != 0 {
		t.Errorf("sweep manifest k=%d stream_length=%d seed=%d, want 2, 30000 and unset",
			man.K, man.StreamLength, man.Seed)
	}
	if len(man.Stages) != 1 || man.Stages[0].Name != obs.StageSweep {
		t.Errorf("sweep manifest stages %+v, want one sweep stage", man.Stages)
	}
	if err := cmdSweep([]string{"-benchmark", "vpr", "-grid", "nope"}); err == nil {
		t.Error("unknown grid accepted")
	}
	if err := cmdSweep([]string{"-profile", filepath.Join(dir, "missing"), "-grid", "quick"}); err == nil {
		t.Error("missing profile accepted")
	}
}

// TestCmdSweepJournalResume exercises the checkpoint workflow: an
// interrupted sweep leaves a journal, -resume finishes it, a fresh run
// refuses to clobber it, and a changed design space refuses the stale
// journal outright.
func TestCmdSweepJournalResume(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.sfg")
	journal := filepath.Join(dir, "sweep.journal")
	if err := cmdProfile([]string{"-benchmark", "vpr", "-n", "30000", "-o", prof}); err != nil {
		t.Fatal(err)
	}
	base := []string{"-profile", prof, "-grid", "quick", "-target", "5000", "-journal", journal}

	if err := cmdSweep(base); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("journal not written: %v", err)
	}
	// Re-running without -resume must refuse to reuse the journal...
	if err := cmdSweep(base); err == nil {
		t.Error("existing journal silently reused without -resume")
	}
	// ...and with -resume it serves every point from the checkpoint.
	if err := cmdSweep(append(base, "-resume")); err != nil {
		t.Fatalf("resume: %v", err)
	}
	// A different sweep identity must not accept this journal.
	if err := cmdSweep([]string{"-profile", prof, "-grid", "quick", "-target", "9000",
		"-journal", journal, "-resume"}); err == nil {
		t.Error("journal from a different sweep accepted")
	}
	// -resume without -journal is a usage error.
	if err := cmdSweep([]string{"-profile", prof, "-grid", "quick", "-resume"}); err == nil {
		t.Error("-resume without -journal accepted")
	}
}

// TestStatsManifestOutput pins the -stats/-trace observability surface:
// a compare run must emit a valid JSON manifest with per-stage timings
// and final metrics, plus a non-empty span list.
func TestStatsManifestOutput(t *testing.T) {
	dir := t.TempDir()
	stats := filepath.Join(dir, "manifest.json")
	spans := filepath.Join(dir, "spans.json")
	err := cmdCompare([]string{"-benchmark", "vpr", "-n", "30000", "-target", "5000",
		"-stats", stats, "-trace", spans})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, raw)
	}
	if man.Version != obs.ManifestVersion || man.Tool != "statsim compare" {
		t.Errorf("manifest header wrong: version=%d tool=%q", man.Version, man.Tool)
	}
	if man.ConfigFingerprint == "" || man.Workload != "vpr" || man.StreamLength != 30000 {
		t.Errorf("manifest inputs wrong: %+v", man)
	}
	if man.Metrics == nil || man.Metrics.IPC <= 0 {
		t.Errorf("manifest metrics missing: %+v", man.Metrics)
	}
	want := map[string]bool{
		obs.StageProfile: false, obs.StageReduce: false,
		obs.StageGenerate: false, obs.StageSimulate: false,
		obs.StageReference: false,
	}
	for _, s := range man.Stages {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
		if s.DurationS < 0 {
			t.Errorf("stage %q has negative duration %v", s.Name, s.DurationS)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("stage %q missing from manifest (have %+v)", name, man.Stages)
		}
	}

	rawSpans, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var list []obs.TraceSpan
	if err := json.Unmarshal(rawSpans, &list); err != nil {
		t.Fatalf("span list is not valid JSON: %v\n%s", err, rawSpans)
	}
	if len(list) == 0 {
		t.Error("span list is empty")
	}
	// One tree: every stage hangs off the invocation's root span (or, for
	// generate, off simulate), all under the manifest's trace ID.
	byID := make(map[string]obs.TraceSpan, len(list))
	for _, sp := range list {
		byID[sp.SpanID] = sp
	}
	for _, sp := range list {
		if sp.TraceID != man.TraceID {
			t.Errorf("span %q has trace ID %q, manifest %q", sp.Name, sp.TraceID, man.TraceID)
		}
		parent, ok := byID[sp.ParentID]
		switch {
		case sp.Name == "statsim compare":
			if sp.ParentID != "" {
				t.Errorf("root span has a parent: %+v", sp)
			}
		case !ok:
			t.Errorf("span %q has no parent in the list", sp.Name)
		case sp.Name == obs.StageGenerate && parent.Name != obs.StageSimulate:
			t.Errorf("generate under %q, want simulate", parent.Name)
		case sp.Name != obs.StageGenerate && parent.Name != "statsim compare":
			t.Errorf("%q under %q, want the root span", sp.Name, parent.Name)
		}
	}

	// Without -stats/-trace the commands run with no tracer.
	if err := cmdEDS([]string{"-benchmark", "vpr", "-n", "5000"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdPhases(t *testing.T) {
	if err := cmdPhases([]string{"-benchmark", "vpr", "-n", "60000", "-interval", "10000"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPhases([]string{"-benchmark", "vpr", "-n", "60000", "-json"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPhases([]string{"-benchmark", "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	// A stream shorter than one interval must error cleanly.
	if err := cmdPhases([]string{"-benchmark", "vpr", "-n", "100", "-interval", "10000"}); err == nil {
		t.Error("sub-interval stream accepted")
	}
}

func TestCmdFidelity(t *testing.T) {
	dir := t.TempDir()
	stats := filepath.Join(dir, "manifest.json")
	err := cmdFidelity([]string{"-benchmark", "vpr", "-n", "120000", "-interval", "10000",
		"-workers", "2", "-stats", stats})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, raw)
	}
	if man.Tool != "statsim fidelity" || man.Workload != "vpr" {
		t.Errorf("manifest header wrong: %+v", man)
	}
	if man.Fidelity == nil {
		t.Fatal("manifest missing fidelity block")
	}
	if man.Fidelity.IPCLo <= 0 || man.Fidelity.IPCHi <= man.Fidelity.IPCLo {
		t.Errorf("manifest fidelity interval malformed: %+v", man.Fidelity)
	}
	if err := cmdFidelity([]string{"-benchmark", "vpr", "-n", "60000", "-interval", "10000", "-json"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFidelity([]string{"-benchmark", "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := cmdFidelity([]string{"-benchmark", "vpr", "-n", "60000", "-confidence", "0.5"}); err == nil {
		t.Error("unsupported confidence accepted")
	}
}
