package statsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/service"
	"repro/internal/sfg"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The kernel corpus pins the timing kernel's whole output, not just the
// handful of rates the golden corpus snapshots: every cell stores a
// SHA-256 of the marshalled cpu.Result — cycles, branch and cache
// counters, activity counts (and through them EPC), the per-stage
// occupancy histograms, the stall-cause counters and the time-averaged
// occupancies. A kernel change that moves any of them fails here and
// names the cell. Intentional changes re-snapshot with
// `go test -run TestKernelCorpus -update` and say why in the commit.
const (
	kernelProfileN = 20_000
	kernelTarget   = 4_000
	kernelEDSN     = 8_000
	kernelWarmupN  = 12_000 // functional-warming prefix for ReferenceWarmed
	kernelSeed     = 1
	kernelStride   = 37 // paper-grid sample stride; co-prime with the 64 width triples per window pair
	kernelBatch    = 16 // lockstep group size, the planner's default cap
)

type kernelConfig struct {
	name string
	cfg  cpu.Config
}

// kernelConfigs is the per-workload configuration list: a stride sample
// of the paper's 1,792-point grid followed by hand-picked corners —
// odd (non-power-of-two) windows at fetch speed 1, in-order issue,
// perfect caches, a perfect predictor and a statistics warm-up.
func kernelConfigs() []kernelConfig {
	base := cpu.DefaultConfig()
	var out []kernelConfig
	grid := service.PaperGrid()
	for i := 0; i < len(grid); i += kernelStride {
		out = append(out, kernelConfig{fmt.Sprintf("grid%04d", i), grid[i].Apply(base)})
	}
	mk := func(name string, mut func(*cpu.Config)) {
		c := base
		mut(&c)
		out = append(out, kernelConfig{name, c})
	}
	mk("odd-windows", func(c *cpu.Config) { c.RUUSize, c.LSQSize, c.IFQSize, c.FetchSpeed = 48, 24, 12, 1 })
	mk("inorder", func(c *cpu.Config) { c.InOrder = true })
	mk("perfect-caches", func(c *cpu.Config) { c.PerfectCaches = true })
	mk("perfect-bpred", func(c *cpu.Config) { c.PerfectBpred = true })
	mk("warmup", func(c *cpu.Config) { c.WarmupInsts = 1_000 })
	return out
}

// kernelCells runs one workload through every run mode of the matrix
// and returns the hash of each cell's Result.
func kernelCells(t *testing.T, w Workload) map[string]string {
	t.Helper()
	cells := map[string]string{}
	put := func(name string, res cpu.Result) {
		if _, dup := cells[name]; dup {
			t.Fatalf("duplicate kernel cell %q", name)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		cells[name] = hex.EncodeToString(sum[:])
	}
	base := cpu.DefaultConfig()
	profile := func(k int) *sfg.Graph {
		g, err := core.Profile(base, w.Stream(kernelSeed, 0, kernelProfileN), core.ProfileOptions{K: k})
		if err != nil {
			t.Fatalf("%s k=%d: profile: %v", w.Name, k, err)
		}
		return g
	}
	cfgs := kernelConfigs()
	named := map[string]cpu.Config{"default": base}
	for _, kc := range cfgs {
		named[kc.name] = kc.cfg
	}

	// Serial statistical simulation at k=1 over every configuration,
	// plus the default and in-order points at k=0 and k=2.
	g := profile(1)
	r := core.ReductionFor(g, kernelTarget)
	for _, kc := range cfgs {
		m, err := core.StatSim(kc.cfg, g, r, kernelSeed)
		if err != nil {
			t.Fatal(err)
		}
		put("statsim/"+kc.name, m.Result)
	}
	for _, k := range []int{0, 2} {
		gk := profile(k)
		rk := core.ReductionFor(gk, kernelTarget)
		for _, name := range []string{"default", "inorder"} {
			m, err := core.StatSim(named[name], gk, rk, kernelSeed)
			if err != nil {
				t.Fatal(err)
			}
			put(fmt.Sprintf("statsim-k%d/%s", k, name), m.Result)
		}
	}

	// One lockstep group: the corner configurations first, then grid
	// samples, so the group mixes every kind of instance.
	var group []cpu.Config
	var names []string
	for i := len(cfgs) - 5; i < len(cfgs); i++ {
		group, names = append(group, cfgs[i].cfg), append(names, cfgs[i].name)
	}
	for i := 0; len(group) < kernelBatch; i++ {
		group, names = append(group, cfgs[i].cfg), append(names, cfgs[i].name)
	}
	ms, err := core.SimulateBatch(group, g, r, kernelSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		put(fmt.Sprintf("batch%02d/%s", i, names[i]), m.Result)
	}

	// Execution-driven reference: live caches and predictor.
	for _, name := range []string{"default", "inorder", "warmup"} {
		put("eds/"+name, core.Reference(named[name], w.Stream(kernelSeed, 0, kernelEDSN)).Result)
	}

	// Sampled EDS from functionally warmed structures.
	ws := cpu.NewWarmState(base)
	ws.Warm(w.Stream(kernelSeed, 0, kernelWarmupN))
	put("eds-warmed/default", core.ReferenceWarmed(base, ws, w.Stream(kernelSeed, kernelWarmupN, kernelEDSN)).Result)

	// Synthetic addresses under a live data hierarchy, at the profiled
	// L1D and at a quarter of it.
	red, err := synth.Reduce(g, synth.Options{R: r, Seed: kernelSeed, SyntheticAddresses: true})
	if err != nil {
		t.Fatal(err)
	}
	dc := base
	dc.SimulateDCache = true
	put("dcache/default", core.SimulateTrace(dc, red.NewTrace(kernelSeed)).Result)
	dc.Hier.L1D.SizeBytes /= 4
	put("dcache/l1d-quarter", core.SimulateTrace(dc, red.NewTrace(kernelSeed)).Result)
	return cells
}

func kernelPath(workload string) string {
	return filepath.Join("testdata", "kernel", workload+".json")
}

// TestKernelCorpus checks every workload's kernel cells against the
// committed hashes (see the const block above for how to regenerate).
func TestKernelCorpus(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			checkHashCorpus(t, kernelPath(w.Name), w.Name, "kernel", kernelCells(t, w))
		})
	}
}

// The trace corpus pins synthetic-trace generation byte for byte, below
// the kernel: every cell stores a SHA-256 of the generated
// trace.DynInst stream, each instruction's fields little-endian in
// declaration order (encoding/binary). A change to reduction, the
// random walk, dependency sampling (and how many variates it draws),
// locality assignment or address synthesis that moves any bit of any
// instruction fails here and names the cell. It shares -update with
// the golden and kernel corpora.
const traceProfileN = 200_000

var (
	traceTargets = []uint64{10_000, 40_000}
	traceSeeds   = []uint64{1, 2}
	traceModes   = []struct {
		name string
		opts synth.Options // R is set per target
	}{
		{"default", synth.Options{}},
		{"edge-avg", synth.Options{EdgeAverageLocality: true}},
		{"synth-addr", synth.Options{SyntheticAddresses: true}},
	}
)

// traceCells generates one workload's traces at k=0..2 for every
// (target, locality mode, seed) and returns the hash of each stream.
func traceCells(t *testing.T, w Workload) map[string]string {
	t.Helper()
	cells := map[string]string{}
	for k := 0; k <= 2; k++ {
		g, err := core.Profile(cpu.DefaultConfig(), w.Stream(kernelSeed, 0, traceProfileN), core.ProfileOptions{K: k})
		if err != nil {
			t.Fatalf("%s k=%d: profile: %v", w.Name, k, err)
		}
		traceGraphCells(t, g, k, cells)
	}
	return cells
}

// traceGraphCells adds the cells of one order-k graph to cells.
func traceGraphCells(t *testing.T, g *sfg.Graph, k int, cells map[string]string) {
	t.Helper()
	buf := make([]trace.DynInst, 1024)
	for _, target := range traceTargets {
		r := core.ReductionFor(g, target)
		for _, m := range traceModes {
			opts := m.opts
			opts.R = r
			red, err := synth.Reduce(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range traceSeeds {
				src := red.NewTrace(seed)
				h := sha256.New()
				for {
					n := src.NextBatch(buf)
					if n == 0 {
						break
					}
					if err := binary.Write(h, binary.LittleEndian, buf[:n]); err != nil {
						t.Fatal(err)
					}
				}
				cells[fmt.Sprintf("k%d/t%d/%s/seed%d", k, target, m.name, seed)] = hex.EncodeToString(h.Sum(nil))
			}
		}
	}
}

// TestTraceCorpus checks every workload's generated traces against the
// committed hashes in testdata/trace/.
func TestTraceCorpus(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			path := filepath.Join("testdata", "trace", w.Name+".json")
			checkHashCorpus(t, path, w.Name, "trace", traceCells(t, w))
		})
	}
}

// TestTraceCorpusStoreRoundTrip generates the k=1 trace cells from a
// graph that went through the durable store's envelope, frozen first as
// statsimd freezes a fresh profile before saving it. Every cell must
// match the committed corpus: the profile byte format loses nothing
// that generation reads. It never rewrites the corpus.
func TestTraceCorpusStoreRoundTrip(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			key := service.ProfileKey{Workload: w.Name, K: 1, N: traceProfileN, Seed: kernelSeed}
			g, err := core.Profile(cpu.DefaultConfig(), w.Stream(key.Seed, 0, key.N), core.ProfileOptions{K: key.K})
			if err != nil {
				t.Fatal(err)
			}
			g.Freeze()
			env, err := service.EncodeProfileEnvelope(key, g)
			if err != nil {
				t.Fatal(err)
			}
			_, loaded, err := service.DecodeProfileEnvelope(env, &key)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			traceGraphCells(t, loaded, key.K, got)
			want := readHashCorpus(t, filepath.Join("testdata", "trace", w.Name+".json"), "trace")
			checked := 0
			for cell, h := range want {
				if !strings.HasPrefix(cell, "k1/") {
					continue
				}
				checked++
				if got[cell] != h {
					t.Errorf("%s: cell %q after a store round trip: hash %s, corpus %s", w.Name, cell, got[cell], h)
				}
			}
			if checked == 0 || checked != len(got) {
				t.Errorf("%s: %d k=1 cells in the corpus, %d generated", w.Name, checked, len(got))
			}
		})
	}
}

// readHashCorpus reads the cell → hash map stored at path.
func readHashCorpus(t *testing.T, path, corpus string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s corpus file (run with -update to create): %v", corpus, err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt %s corpus file %s: %v", corpus, path, err)
	}
	return want
}

// checkHashCorpus compares got against the cell → hash map stored at
// path, or rewrites the file under -update.
func checkHashCorpus(t *testing.T, path, workload, corpus string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readHashCorpus(t, path, corpus)
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: %s cell %q no longer produced", workload, corpus, k)
		case h != want[k]:
			t.Errorf("%s: %s cell %q: hash %s, corpus %s", workload, corpus, k, h, want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s: %s corpus has %d cells, test produced %d", workload, corpus, len(want), len(got))
	}
}
