package experiments

import (
	"strings"
	"testing"

	"repro/internal/service"
)

// quick returns a small scale that exercises every code path fast.
func quick() Scale {
	s := QuickScale()
	s.RefInstructions = 120_000
	s.SynthTarget = 25_000
	s.Seeds = 3
	s.Benchmarks = []string{"gzip", "vpr"}
	return s
}

func TestTable1(t *testing.T) {
	r, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.IPC <= 0 || row.IPC > 8 {
			t.Errorf("%s IPC %.3f implausible", row.Name, row.IPC)
		}
		if row.EPC <= 0 {
			t.Errorf("%s EPC %.2f", row.Name, row.EPC)
		}
	}
	if !strings.Contains(r.Render(), "gzip") {
		t.Error("render missing benchmark")
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// Delayed-update profiling must land between immediate-update
		// profiling and overshoot, and closer to EDS than immediate is.
		edsGapDel := abs(row.Delayed - row.EDS)
		edsGapImm := abs(row.Immediate - row.EDS)
		if edsGapDel > edsGapImm {
			t.Errorf("%s: delayed profiling (%.2f) further from EDS (%.2f) than immediate (%.2f)",
				row.Name, row.Delayed, row.EDS, row.Immediate)
		}
		if row.Immediate > row.EDS {
			t.Logf("%s: immediate (%.2f) above EDS (%.2f) — unusual but possible", row.Name, row.Immediate, row.EDS)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's core claim: k >= 1 is dramatically better than k = 0.
	if r.AvgError(1) > r.AvgError(0) {
		t.Errorf("k=1 error %.3f should not exceed k=0 error %.3f", r.AvgError(1), r.AvgError(0))
	}
	if r.AvgError(1) > 0.10 {
		t.Errorf("k=1 average error %.1f%% too large", 100*r.AvgError(1))
	}
	// Table 3 property: node counts grow with k.
	for _, row := range r.Rows {
		for k := 1; k <= 3; k++ {
			if row.Nodes[k] < row.Nodes[k-1] {
				t.Errorf("%s: nodes shrank from k=%d (%d) to k=%d (%d)",
					row.Name, k-1, row.Nodes[k-1], k, row.Nodes[k])
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(quick())
	if err != nil {
		t.Fatal(err)
	}
	imm, del := r.Avg()
	if del > imm+0.02 {
		t.Errorf("delayed-update profiles should predict at least as well: imm=%.3f del=%.3f", imm, del)
	}
	if del > 0.15 {
		t.Errorf("delayed-update error %.1f%% too large", 100*del)
	}
}

func TestCoVShape(t *testing.T) {
	s := quick()
	s.Seeds = 6
	r, err := CoV(s, []uint64{4_000, 30_000})
	if err != nil {
		t.Fatal(err)
	}
	short, long := r.AvgAt(0), r.AvgAt(1)
	if long > short {
		t.Errorf("CoV should shrink with trace length: %.4f (short) vs %.4f (long)", short, long)
	}
	if long > 0.08 {
		t.Errorf("CoV at 30k = %.4f, want small", long)
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	ipc, epc, _ := r.Avg()
	if ipc > 0.15 {
		t.Errorf("average IPC error %.1f%% too large (paper: 6.6%%)", 100*ipc)
	}
	if epc > 0.12 {
		t.Errorf("average EPC error %.1f%% too large (paper: 4%%)", 100*epc)
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(quick())
	if err != nil {
		t.Fatal(err)
	}
	h, sm := r.Avg()
	if sm > h {
		t.Errorf("SMART-HLS (%.1f%%) should beat HLS (%.1f%%) on average", 100*sm, 100*h)
	}
}

func TestFig8Shape(t *testing.T) {
	s := quick()
	s.RefInstructions = 60_000
	s.SynthTarget = 15_000
	r, err := Fig8(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	one, ten, hundred, sp := r.Avg()
	for _, e := range []float64{one, ten, hundred, sp} {
		if e > 0.35 {
			t.Errorf("scenario error %.1f%% implausibly large (%v)", 100*e, []float64{one, ten, hundred, sp})
			break
		}
	}
	for _, row := range r.Rows {
		if row.Points < 1 {
			t.Errorf("%s: no simulation points", row.Name)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	s := quick()
	s.Benchmarks = []string{"gzip"}
	r, err := Table4(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweeps) != 5 {
		t.Fatalf("sweeps = %d, want 5", len(r.Sweeps))
	}
	for _, sw := range r.Sweeps {
		if len(sw.Transitions) == 0 {
			t.Errorf("sweep %q has no transitions", sw.Name)
		}
	}
	// Relative errors should be small on average (paper: < 3%); allow
	// headroom at quick scale.
	var sum float64
	var n int
	for _, sw := range r.Sweeps {
		for _, tr := range sw.Transitions {
			for _, e := range tr.Errors {
				sum += e
				n++
			}
		}
	}
	if avg := sum / float64(n); avg > 0.08 {
		t.Errorf("mean relative error %.1f%% too large", 100*avg)
	}
}

func TestDSEShape(t *testing.T) {
	s := quick()
	s.Benchmarks = []string{"gzip"}
	r, err := DSE(s, service.QuickGrid())
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.Candidates < 1 {
		t.Error("no candidate designs")
	}
	if row.MissPct > 0.10 {
		t.Errorf("SS-chosen design %.1f%% off the EDS optimum", 100*row.MissPct)
	}
	if row.SSBest.RUU == 0 {
		t.Error("no best point identified")
	}
}

func TestAblationShape(t *testing.T) {
	s := quick()
	r, err := Ablation(s)
	if err != nil {
		t.Fatal(err)
	}
	full, k0, _, _ := r.Avg()
	if full > 0.15 {
		t.Errorf("full framework error %.1f%% too large", 100*full)
	}
	// Removing control-flow correlation must not help on average.
	if k0 < full-0.02 {
		t.Errorf("k=0 (%.1f%%) should not beat the full framework (%.1f%%)", 100*k0, 100*full)
	}
}

func TestPaperGridSize(t *testing.T) {
	if got := len(service.PaperGrid()); got != 1792 {
		t.Fatalf("paper grid has %d points, want 1792", got)
	}
}

func TestSpeedShape(t *testing.T) {
	s := quick()
	s.Benchmarks = []string{"vpr"}
	r, err := Speed(s)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.EDSSeconds <= 0 || row.SSSeconds <= 0 {
		t.Error("timings missing")
	}
	if row.Speedup <= 1 {
		t.Errorf("statistical simulation should be faster than EDS (speedup %.2f)", row.Speedup)
	}
	if !strings.Contains(r.Render(), "speedup") {
		t.Error("render missing speedup column")
	}
}

func TestBpredKindsShape(t *testing.T) {
	s := quick()
	s.Benchmarks = []string{"crafty"}
	r, err := BpredKinds(s)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]BpredKindRow{}
	for _, row := range r.Rows {
		byKind[row.Kind] = row
	}
	// A real predictor must beat static not-taken on mispredict rate,
	// and the hybrid should be at least as good as bimodal alone.
	if byKind["hybrid"].MisPKI >= byKind["nottaken"].MisPKI {
		t.Errorf("hybrid (%.1f/KI) should beat static not-taken (%.1f/KI)",
			byKind["hybrid"].MisPKI, byKind["nottaken"].MisPKI)
	}
	for _, row := range r.Rows {
		if row.SSErr > 0.25 {
			t.Errorf("%s/%s: statistical simulation error %.1f%% too large",
				row.Name, row.Kind, 100*row.SSErr)
		}
	}
}

func TestAddrSweepShape(t *testing.T) {
	s := quick()
	s.RefInstructions = 200_000
	s.Benchmarks = []string{"twolf"}
	r, err := AddrSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.EDSRatio <= 0 || row.EDSRatio > 1.2 {
		t.Errorf("EDS shrink ratio %.3f implausible", row.EDSRatio)
	}
	if row.AddrSynthErr > 0.35 {
		t.Errorf("synthetic-address trend error %.1f%% too large", 100*row.AddrSynthErr)
	}
	if !strings.Contains(r.Render(), "addr-synth") {
		t.Error("render missing column")
	}
}

func TestBarChart(t *testing.T) {
	c := newBarChart("demo")
	if !strings.Contains(c.String(), "no data") {
		t.Error("empty chart should say so")
	}
	c.add("a", 2, "two")
	c.add("bb", 1, "one")
	c.add("z", 0, "zero")
	out := c.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "##") {
		t.Errorf("bad chart:\n%s", out)
	}
	// The longest bar belongs to the largest value.
	lines := strings.Split(out, "\n")
	if strings.Count(lines[1], "#") <= strings.Count(lines[2], "#") {
		t.Errorf("bar scaling wrong:\n%s", out)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Fatalf("registry has %d experiments, want 14: %v", len(names), names)
	}
	if _, err := Run("nope", quick()); err == nil {
		t.Error("unknown experiment accepted")
	}
	// One real run through the registry path.
	res, err := Run("table1", quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestRenderTable(t *testing.T) {
	tb := &table{header: []string{"a", "bb"}}
	tb.add("x", "y")
	out := tb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "--") || !strings.Contains(out, "x") {
		t.Errorf("bad table:\n%s", out)
	}
}
