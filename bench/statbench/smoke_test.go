package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// toyScale runs every workload end to end in about a second.
func toyScale() scale {
	return scale{
		ProfileN:   20_000,
		Grid:       "quick",
		ColdTarget: 2_000,
		HitTarget:  1_000,
		SimTarget:  5_000,
		SetupReps:  2,
		Samples:    8,
		ValidateN:  20_000,
		CalibReps:  1,
	}
}

// exercised names, per workload, unit costs its replay must measure, and
// bypassed ones it must read as 0 because the workload never calls them.
var exercised = map[string]struct{ measured, bypassed []string }{
	"sweep-cold":    {[]string{"lockstep.ns_per_point_inst", "synth.ns_per_inst", "resultstore.put_us", "journal.append_us"}, []string{"sfg.ns_per_inst", "store.save_ms"}},
	"sweep-hit":     {[]string{"resultstore.get_us", "journal.append_us", "journal.open_ms", "wire.decode_ms"}, []string{"cpu.ns_per_inst", "lockstep.ns_per_point_inst", "synth.reduce_ms"}},
	"simulate-mix":  {[]string{"synth.reduce_ms", "synth.ns_per_inst", "cpu.ns_per_inst", "resultstore.put_us"}, []string{"lockstep.ns_per_point_inst", "journal.append_us", "program.ns_per_inst"}},
	"pipeline-cold": {[]string{"program.ns_per_inst", "sfg.ns_per_inst", "store.save_ms", "cpu.ns_per_inst"}, []string{"lockstep.ns_per_point_inst", "journal.open_ms"}},
}

// declared returns the metric names BENCHMARK.json declares in section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def map[string]json.RawMessage
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(def[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func names(ms map[string]metric) []string {
	var out []string
	for n := range ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	run := func(wl string, traced bool) *report {
		t.Helper()
		var out bytes.Buffer
		opts := options{workload: wl, seed: 3, seconds: 0.3, trace: traced}
		if traced {
			opts.spans = filepath.Join(t.TempDir(), "spans.json")
		}
		rep, err := runBench(context.Background(), opts, toyScale(), &out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", wl, err, out.String())
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Fatalf("%s: correct %t, %d of %d failed\n%s", wl, rep.Correct, rep.Failed, rep.Attempted, out.String())
		}
		if w, _ := lookupWorkload(wl); rep.Attempted%w.round != 0 {
			t.Errorf("%s: %d ops attempted, not whole rounds of %d", wl, rep.Attempted, w.round)
		}
		if !strings.Contains(out.String(), "result_digest "+rep.Digest) {
			t.Errorf("%s: result_digest not printed\n%s", wl, out.String())
		}
		return rep
	}

	rep := run("sweep-hit", false)
	if got := names(rep.Metrics); strings.Join(got, " ") != strings.Join(e2e, " ") {
		t.Errorf("untraced metrics %v, BENCHMARK.json declares %v", got, e2e)
	}
	for name, m := range rep.Metrics {
		if !(m.Value > 0) {
			t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
		}
	}
	for _, wl := range workloads {
		rep := run(wl.name, true)
		if got := names(rep.Metrics); strings.Join(got, " ") != strings.Join(layers, " ") {
			t.Errorf("%s: traced metrics %v, BENCHMARK.json declares %v", wl.name, got, layers)
		}
		for _, name := range exercised[wl.name].measured {
			if !(rep.Metrics[name].Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", wl.name, name, rep.Metrics[name].Value)
			}
		}
		for _, name := range exercised[wl.name].bypassed {
			if v := rep.Metrics[name].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0 for a layer the workload never calls", wl.name, name, v)
			}
		}
	}
	a, b := run("sweep-cold", false), run("sweep-cold", false)
	if a.DigestOps == b.DigestOps && a.Digest != b.Digest {
		t.Errorf("sweep-cold: two runs of one seed answered their first %d ops differently", a.DigestOps)
	}
}
