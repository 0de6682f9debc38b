package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// around returns n values centred on mid, alternating ±spread.
func around(mid, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mid + spread*float64(i%5-2)/2
	}
	return xs
}

func TestJudgeVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		bound          float64
		want           string
	}{
		{"faster beyond the spread", around(100, 2, 10), around(90, 2, 10), true, 0.05, "better"},
		{"higher throughput", around(100, 2, 10), around(110, 2, 10), false, 0.05, "better"},
		{"slower beyond the bound", around(100, 2, 10), around(110, 2, 10), true, 0.05, "worse"},
		{"lower throughput", around(100, 2, 10), around(90, 2, 10), false, 0.05, "worse"},
		{"same within the bound", around(100, 2, 10), around(101, 2, 10), true, 0.05, "unchanged"},
		{"too few pairs", around(100, 2, 9), around(80, 2, 9), true, 0.05, "unresolved"},
		{"spread wider than the bound", around(100, 30, 10), around(98, 30, 10), true, 0.05, "unresolved"},
		{"wide spread but every change run better", around(100, 10, 10), around(70, 10, 10), true, 0.05, "better"},
	} {
		if got := judge(tc.parent, tc.change, tc.lowerBetter, tc.bound); got.verdict != tc.want {
			t.Errorf("%s: verdict %s (%+v), want %s", tc.name, got.verdict, got, tc.want)
		}
	}

	// Wins count strict improvements only: ties count for neither side.
	j := judge([]float64{1, 1, 1}, []float64{1, 0.5, 2}, true, 0.05)
	if j.wins != 1 || j.pairs != 3 {
		t.Errorf("wins %d of %d, want 1 of 3", j.wins, j.pairs)
	}
}

func TestCompareDirsExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	def := `{"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.05}]}`
	if err := os.WriteFile(bench, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, p50 []float64) string {
		d := filepath.Join(dir, side)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, v := range p50 {
			r := report{result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"p50_ms": {v, "ms"}}},
				Workload: "simulate-mix", Seed: uint64(i + 1)}
			data, _ := json.Marshal(r)
			if err := os.WriteFile(filepath.Join(d, fmt.Sprintf("%02d.json", i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	parent := write("parent", around(100, 2, 10))
	var out, errOut bytes.Buffer
	if code := compareDirs(bench, parent, write("slower", around(110, 2, 10)), &out, &errOut); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("regression: exit %d, output\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := compareDirs(bench, parent, write("faster", around(90, 2, 10)), &out, &errOut); code != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("improvement: exit %d, output\n%s%s", code, out.String(), errOut.String())
	}
}
