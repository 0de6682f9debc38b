package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func mustSequence(t *testing.T, wl workload, seed uint64) *sequence {
	t.Helper()
	seq, err := newSequence(wl, seed, paperScale())
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// sequenceBytes marshals the first n ops of a workload's sequence.
func sequenceBytes(t *testing.T, wl workload, seed uint64, n int) []byte {
	t.Helper()
	seq := mustSequence(t, wl, seed)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Write(mustJSON(t, seq.op(i)))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		a := sequenceBytes(t, wl, 7, 24)
		if b := sequenceBytes(t, wl, 7, 24); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different sequences", wl.name)
		}
		if c := sequenceBytes(t, wl, 8, 24); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", wl.name)
		}
	}
}

func TestSequenceShapes(t *testing.T) {
	const gridPoints = 1792
	hit := mustSequence(t, workloads[1], 3)
	if !bytes.Equal(mustJSON(t, hit.op(2)), mustJSON(t, hit.op(3))) {
		t.Error("sweep-hit: the fourth sweep of a round does not repeat the third")
	}
	if bytes.Equal(mustJSON(t, hit.op(0)), mustJSON(t, hit.op(1))) {
		t.Error("sweep-hit: consecutive fresh sweeps share a permutation")
	}
	if n := len(hit.op(0).Sweep.Points); n != gridPoints {
		t.Errorf("sweep-hit sweeps %d points, want the whole %d-point grid", n, gridPoints)
	}

	// sweep-cold asks for the whole named grid, cycling the three DSE
	// programs once per round.
	cold := mustSequence(t, workloads[0], 3)
	for i := 0; i < 2*cold.wl.round; i++ {
		o := cold.op(i)
		if o.Sweep.Grid != "paper" || len(o.Sweep.Points) != 0 || o.points() != gridPoints {
			t.Fatalf("sweep-cold op %d asks grid %q with %d explicit points, resolving to %d", i, o.Sweep.Grid, len(o.Sweep.Points), o.points())
		}
		if want := sweepColdWorkloads[i%cold.wl.round]; o.Sweep.Profile.Workload != want {
			t.Errorf("sweep-cold op %d sweeps %s, want %s", i, o.Sweep.Profile.Workload, want)
		}
	}

	// Every cold sweep and every simulate of a run must miss the result
	// store: no two requests may share a (program, config, sim_seed).
	for _, tc := range []struct {
		wl  workload
		ops int
	}{{workloads[0], 12}, {workloads[2], 2000}} {
		wl, seq := tc.wl, mustSequence(t, tc.wl, 5)
		seen := make(map[string]bool)
		for i := 0; i < tc.ops; i++ {
			o := seq.op(i)
			for k := 0; k < o.points(); k++ {
				p := pointOf(o, k)
				key := string(mustJSON(t, []any{p.spec.Workload, p.cfg, p.simSeed}))
				if seen[key] {
					t.Fatalf("%s: op %d point %d repeats an earlier simulation", wl.name, i, k)
				}
				seen[key] = true
			}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
