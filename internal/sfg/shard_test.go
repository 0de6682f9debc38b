package sfg

import (
	"fmt"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

func shardStream(n uint64) trace.Source {
	prog := program.MustGenerate(program.Personality{Name: "t", Seed: 11, TargetBlocks: 60})
	return &trace.LimitSource{Src: program.NewExecutor(prog, 1), N: n}
}

// fingerprint renders every deterministic field of the graph in ID
// order, so two graphs compare equal iff they are structurally
// identical (node/edge numbering included).
func fingerprint(g *Graph) string {
	s := fmt.Sprintf("k=%d insts=%d blocks=%d\n", g.K, g.TotalInstructions, g.TotalBlocks)
	for _, n := range g.Nodes {
		s += fmt.Sprintf("n%d %v occ=%d out=%v in=%v\n", n.ID, n.Hist, n.Occ, n.Out, n.In)
	}
	for _, e := range g.Edges {
		s += fmt.Sprintf("e%d %d->%d blk=%d cnt=%d br=%d/%d/%d/%d i=%d/%d/%d/%d d=%d/%d/%d/%d/%d\n",
			e.ID, e.From, e.To, e.Block, e.Count,
			e.BrCount, e.BrTaken, e.BrMispredict, e.BrRedirect,
			e.Fetches, e.L1IMiss, e.L2IMiss, e.ITLBMiss,
			e.Loads, e.Stores, e.L1DMiss, e.L2DMiss, e.DTLBMiss)
		for i := range e.Insts {
			ip := &e.Insts[i]
			s += fmt.Sprintf("  s%d c=%v srcs=%d", i, ip.Class, ip.NumSrcs)
			for op, h := range ip.Dep {
				if h != nil {
					s += fmt.Sprintf(" d%d=%d/%v", op, h.Total(), h.Mean())
				}
			}
			if ip.Addr != nil {
				s += fmt.Sprintf(" addr=%d/%d/%d ov=%d", ip.Addr.Count, ip.Addr.Min, ip.Addr.Max, ip.Addr.Overflow)
			}
			s += "\n"
		}
	}
	return s
}

// TestShardedExactCounts checks the block-aligned recording invariants:
// sharding never drops, duplicates or reassigns a block, so the merged
// instruction/block totals and the per-block dynamic counts match the
// sequential profile exactly (only state-dependent locality events may
// drift).
func TestShardedExactCounts(t *testing.T) {
	const n = 50_000
	for _, k := range []int{0, 1, 2} {
		seq, err := Profile(shardStream(n), defaultOpts(k))
		if err != nil {
			t.Fatal(err)
		}
		sh, err := ProfileSharded(shardStream(n), defaultOpts(k), ShardOptions{Shards: 4, Interval: 8192})
		if err != nil {
			t.Fatal(err)
		}
		if sh.TotalInstructions != seq.TotalInstructions || sh.TotalBlocks != seq.TotalBlocks {
			t.Fatalf("k=%d totals differ: sharded %d/%d sequential %d/%d",
				k, sh.TotalInstructions, sh.TotalBlocks, seq.TotalInstructions, seq.TotalBlocks)
		}
		if err := sh.Validate(); err != nil {
			t.Fatalf("k=%d merged graph invalid: %v", k, err)
		}
		// Per-block dynamic execution counts must agree exactly.
		count := func(g *Graph) map[int32]uint64 {
			m := map[int32]uint64{}
			for _, e := range g.Edges {
				m[e.Block] += e.Count
			}
			return m
		}
		sc, hc := count(seq), count(sh)
		if len(sc) != len(hc) {
			t.Fatalf("k=%d block sets differ: %d vs %d", k, len(sc), len(hc))
		}
		for b, c := range sc {
			if hc[b] != c {
				t.Fatalf("k=%d block %d count %d != sequential %d", k, b, hc[b], c)
			}
		}
	}
}

// TestShardedDeterministicAcrossWorkerCounts checks the merge-order
// guarantee: for a fixed Interval the result is identical no matter how
// many workers run, including node/edge numbering.
func TestShardedDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 40_000
	var want string
	for i, shards := range []int{2, 3, 8, 16} {
		g, err := ProfileSharded(shardStream(n), defaultOpts(1), ShardOptions{Shards: shards, Interval: 4096})
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint(g)
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("shards=%d produced a different graph", shards)
		}
	}
}

// TestShardedSingleSlabEqualsSequential: when the stream fits one slab,
// sharding degrades to the sequential profiler exactly.
func TestShardedSingleSlabEqualsSequential(t *testing.T) {
	const n = 10_000
	seq, err := Profile(shardStream(n), defaultOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ProfileSharded(shardStream(n), defaultOpts(1), ShardOptions{Shards: 8, Interval: 65536})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(seq) != fingerprint(sh) {
		t.Fatal("single-slab sharded profile differs from sequential")
	}
}

// TestShardedWarmupOption checks the caller-level warm window composes
// with sharding (warm instructions are excluded from recording).
func TestShardedWarmupOption(t *testing.T) {
	const n, warm = 30_000, 5_000
	opts := defaultOpts(1)
	opts.Warmup = warm
	sh, err := ProfileSharded(shardStream(n), opts, ShardOptions{Shards: 4, Interval: 8192})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Profile(shardStream(n), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sh.TotalInstructions != seq.TotalInstructions {
		t.Fatalf("warmup composition: sharded recorded %d, sequential %d", sh.TotalInstructions, seq.TotalInstructions)
	}
	if err := sh.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRejectsBadStream checks shard errors propagate.
func TestShardedRejectsBadStream(t *testing.T) {
	insts := make([]trace.DynInst, 20_000)
	for i := range insts {
		insts[i].BlockID = -1
	}
	if _, err := ProfileSharded(trace.NewSliceSource(insts), defaultOpts(1), ShardOptions{Shards: 4, Interval: 4096}); err == nil {
		t.Fatal("expected an annotation error")
	}
}

func TestAddrProfileMergeDeterministicAtCapacity(t *testing.T) {
	// Fill a to capacity, then merge a profile with both shared and
	// novel deltas: shared ones accumulate, novel ones overflow, and
	// repeating the merge from a clone gives identical results.
	build := func() *AddrProfile {
		a := &AddrProfile{}
		addr := uint64(1 << 20)
		a.observe(addr)
		for d := 1; d <= MaxDistinctStrides; d++ {
			addr += uint64(d)
			a.observe(addr)
		}
		return a
	}
	o := &AddrProfile{}
	addr := uint64(1 << 30)
	o.observe(addr)
	for d := 1; d <= 2*MaxDistinctStrides; d++ {
		addr += uint64(d)
		o.observe(addr)
	}
	run := func() *AddrProfile {
		a := build()
		a.Merge(o)
		return a
	}
	a1, a2 := run(), run()
	if len(a1.Strides) != MaxDistinctStrides {
		t.Fatalf("capacity violated: %d strides", len(a1.Strides))
	}
	if a1.Count != a2.Count || a1.Overflow != a2.Overflow || len(a1.Strides) != len(a2.Strides) {
		t.Fatal("merge not deterministic")
	}
	for i, s := range a1.Strides {
		if a2.Strides[i] != s {
			t.Fatalf("stride %d count differs across merges", s.Delta)
		}
	}
	wantCount := build().Count + o.Count
	if a1.Count != wantCount {
		t.Fatalf("count %d, want %d", a1.Count, wantCount)
	}
	if a1.Min != 1<<20 || a1.Max < 1<<30 {
		t.Fatalf("footprint bounds wrong: [%d,%d]", a1.Min, a1.Max)
	}
}
