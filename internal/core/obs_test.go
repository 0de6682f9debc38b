package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cpu"
	"repro/internal/obs"
)

// TestTracedMatchesUntraced pins the central obs contract: recording
// stage spans observes timings but never perturbs the simulation —
// traced and untraced runs yield byte-identical metrics — and each
// stage span carries the instructions it processed.
func TestTracedMatchesUntraced(t *testing.T) {
	w, err := LoadWorkload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	const n = 20_000

	tr := obs.NewTracer("t", "local")
	ctx := obs.WithTracer(context.Background(), tr)
	_, sp := tr.StartSpan(ctx, obs.StageProfile)
	gTraced, err := Profile(cfg, w.Stream(1, 0, n), ProfileOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp.EndInstructions(gTraced.TotalInstructions)
	gPlain, err := Profile(cfg, w.Stream(1, 0, n), ProfileOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}

	r := ReductionFor(gPlain, 5_000)
	mTraced, err := StatSimTraced(ctx, cfg, gTraced, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	mPlain, err := StatSim(cfg, gPlain, r, 1)
	if err != nil {
		t.Fatal(err)
	}

	bt, _ := json.Marshal(mTraced)
	bp, _ := json.Marshal(mPlain)
	if !bytes.Equal(bt, bp) {
		t.Fatalf("traced and untraced metrics differ:\n%s\n%s", bt, bp)
	}

	totals := make(map[string]obs.StageTiming)
	for _, st := range tr.Stages() {
		totals[st.Name] = st
	}
	for _, stage := range []string{obs.StageProfile, obs.StageReduce, obs.StageGenerate, obs.StageSimulate} {
		if _, ok := totals[stage]; !ok {
			t.Errorf("stage %q missing from tracer (have %v)", stage, totals)
		}
	}
	if got := totals[obs.StageProfile].Instructions; got != gTraced.TotalInstructions {
		t.Errorf("profile span instructions = %d, want %d", got, gTraced.TotalInstructions)
	}
	if got := totals[obs.StageSimulate].Instructions; got != mTraced.Instructions {
		t.Errorf("simulate span instructions = %d, want %d", got, mTraced.Instructions)
	}
	if totals[obs.StageGenerate].Instructions == 0 {
		t.Error("generate span carries no instructions")
	}
	// generate is recorded under simulate, so simulate's self time
	// excludes it.
	spans := tr.Spans()
	ids := make(map[string]string, len(spans))
	for _, s := range spans {
		ids[s.SpanID] = s.Name
	}
	for _, s := range spans {
		if s.Name == obs.StageGenerate && ids[s.ParentID] != obs.StageSimulate {
			t.Errorf("generate span's parent is %q, want simulate", ids[s.ParentID])
		}
	}
}

// TestTracedNilRecorder pins that the traced entry point runs without a
// span recorder (no tracer in the context), the disabled fast path the
// CLI default uses, and then computes plain StatSim.
func TestTracedNilRecorder(t *testing.T) {
	w, err := LoadWorkload("vpr")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	g, err := Profile(cfg, w.Stream(1, 0, 10_000), ProfileOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := ReductionFor(g, 2_000)
	traced, err := StatSimTraced(context.Background(), cfg, g, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := StatSim(cfg, g, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Instructions == 0 || traced.Cycles != plain.Cycles || traced.Instructions != plain.Instructions {
		t.Fatalf("untraced StatSimTraced %d insts/%d cycles, StatSim %d/%d",
			traced.Instructions, traced.Cycles, plain.Instructions, plain.Cycles)
	}
}

// TestManifestMetrics pins the manifest wire conversion.
func TestManifestMetrics(t *testing.T) {
	w, err := LoadWorkload("gzip")
	if err != nil {
		t.Fatal(err)
	}
	m := Reference(cpu.DefaultConfig(), w.Stream(1, 0, 10_000))
	mm := ManifestMetrics(m)
	if mm.IPC != m.IPC() || mm.Instructions != m.Instructions || mm.Cycles != m.Cycles {
		t.Fatalf("manifest metrics mismatch: %+v vs IPC=%v insts=%d cycles=%d",
			mm, m.IPC(), m.Instructions, m.Cycles)
	}
	if mm.L1DMissRate <= 0 || mm.L1DMissRate >= 1 {
		t.Fatalf("implausible L1D miss rate %v", mm.L1DMissRate)
	}
}
