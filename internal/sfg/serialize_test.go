package sfg

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

// testProfile profiles a small generated program with opts.
func testProfile(t testing.TB, opts Options, n uint64) *Graph {
	t.Helper()
	prog := program.MustGenerate(program.Personality{Name: "t", Seed: 3, TargetBlocks: 80})
	g, err := Profile(&trace.LimitSource{Src: program.NewExecutor(prog, 1), N: n}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func encode(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	prog := program.MustGenerate(program.Personality{Name: "t", Seed: 3, TargetBlocks: 80})
	src := &trace.LimitSource{Src: program.NewExecutor(prog, 1), N: 60_000}
	g, err := Profile(src, defaultOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.K != g.K || g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed: %d/%d nodes, %d/%d edges",
			g.NumNodes(), g2.NumNodes(), g.NumEdges(), g2.NumEdges())
	}
	if g2.TotalInstructions != g.TotalInstructions || g2.TotalBlocks != g.TotalBlocks {
		t.Error("totals changed")
	}
	for i := range g.Edges {
		a, b := g.Edges[i], g2.Edges[i]
		if a.Count != b.Count || a.BrMispredict != b.BrMispredict ||
			a.L1DMiss != b.L1DMiss || len(a.Insts) != len(b.Insts) {
			t.Fatalf("edge %d differs", i)
		}
		for j := range a.Insts {
			ia, ib := &a.Insts[j], &b.Insts[j]
			if ia.Class != ib.Class || ia.NumSrcs != ib.NumSrcs || ia.L1DMiss != ib.L1DMiss {
				t.Fatalf("edge %d inst %d differs", i, j)
			}
			for op := range ia.Dep {
				ha, hb := ia.Dep[op], ib.Dep[op]
				if (ha == nil) != (hb == nil) {
					t.Fatalf("edge %d inst %d op %d: histogram presence differs", i, j, op)
				}
				if ha != nil && (ha.Total() != hb.Total() || ha.Mean() != hb.Mean()) {
					t.Fatalf("edge %d inst %d op %d: histogram content differs", i, j, op)
				}
			}
		}
	}
	// Mispredict summary must survive the round trip.
	if g.MispredictsPerKI() != g2.MispredictsPerKI() {
		t.Error("mispredict rate changed")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestSaveIsCanonical pins the byte form's determinism: one graph has
// one encoding, whether or not its histograms are frozen, and a loaded
// graph re-encodes to the bytes it was loaded from.
func TestSaveIsCanonical(t *testing.T) {
	for _, opts := range []Options{defaultOpts(1), func() Options { o := defaultOpts(2); o.DepMax = 64; return o }()} {
		g := testProfile(t, opts, 60_000)
		first := encode(t, g)
		if !bytes.Equal(first, encode(t, g)) {
			t.Fatal("two saves of one graph differ")
		}
		g.Freeze()
		if !bytes.Equal(first, encode(t, g)) {
			t.Fatal("save after Freeze differs from save before it")
		}
		g2, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, encode(t, g2)) {
			t.Fatal("Save∘Load∘Save does not reproduce the bytes")
		}
		for _, e := range g2.Edges {
			for _, ip := range e.Insts {
				if h := ip.Dep[0]; h != nil && h.Max != opts.withDefaults().DepMax {
					t.Fatalf("histogram bound %d, profiled with DepMax %d", h.Max, opts.withDefaults().DepMax)
				}
			}
		}
	}
}

// TestFreezeShedsProfilingStorage: Freeze moves every slot list and
// stride table to a backing array of exactly its length, drops the
// full tables' filters and changes no byte of the profile. A second
// Freeze writes nothing, as synth.Reduce needs on a shared graph: here
// it runs on four goroutines that also read the graph, which the race
// detector checks under -race.
func TestFreezeShedsProfilingStorage(t *testing.T) {
	g := testProfile(t, defaultOpts(1), 60_000)
	want := encode(t, g)
	slack, full := 0, 0
	for _, e := range g.Edges {
		if cap(e.Insts) > len(e.Insts) {
			slack++
		}
		for i := range e.Insts {
			if a := e.Insts[i].Addr; a != nil && a.full != nil {
				full++
			}
		}
	}
	if slack == 0 || full == 0 {
		t.Fatalf("profile has %d slot lists with spare capacity and %d full stride tables; the test needs both", slack, full)
	}
	g.Freeze()
	// check reads every field Freeze may write.
	check := func() error {
		for _, e := range g.Edges {
			if cap(e.Insts) != len(e.Insts) {
				return fmt.Errorf("edge %d: %d slots in a backing array of %d", e.ID, len(e.Insts), cap(e.Insts))
			}
			for i := range e.Insts {
				if a := e.Insts[i].Addr; a != nil && (cap(a.Strides) != len(a.Strides) || a.full != nil) {
					return fmt.Errorf("edge %d slot %d: %d strides in a backing array of %d, filter kept: %v",
						e.ID, i, len(a.Strides), cap(a.Strides), a.full != nil)
				}
			}
		}
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
			return fmt.Errorf("frozen graph saves different bytes (%v)", err)
		}
		return nil
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Freeze()
			if err := check(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestLoadRejectsNonCanonical: every damaged or non-canonical form of a
// valid encoding is an error, never a panic or a different graph —
// truncation at every length, trailing bytes, a padded varint, another
// version, a gob stream from an earlier build.
func TestLoadRejectsNonCanonical(t *testing.T) {
	valid := encode(t, testProfile(t, defaultOpts(1), 5_000))
	for n := 0; n < len(valid); n++ {
		if _, err := Load(bytes.NewReader(valid[:n])); err == nil {
			t.Fatalf("truncated to %d of %d bytes: accepted", n, len(valid))
		}
	}
	bad := map[string][]byte{
		"trailing byte": append(append([]byte(nil), valid...), 0),
		// The version uvarint 2 padded to two bytes.
		"padded varint": append(append(append([]byte(nil), valid[:4]...), 0x82, 0x00), valid[5:]...),
		"version 1":     append(append(append([]byte(nil), valid[:4]...), 1), valid[5:]...),
		"earlier build": {0x3f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x09, 'g', 'r', 'a', 'p', 'h', 'W', 'i', 'r', 'e'},
		"order above 4": append(append(append([]byte(nil), valid[:5]...), 5), valid[6:]...),
	}
	for name, b := range bad {
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	_, err := Load(bytes.NewReader(bad["earlier build"]))
	if err == nil || !strings.Contains(err.Error(), "re-profile") {
		t.Errorf("a profile from an earlier build should say to re-profile, got %v", err)
	}
}
