package sfg

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

// FuzzSaveLoadRoundTrip guards the profile byte format against silent
// schema drift: once graphs live server-side in the statsimd cache and
// on disk via `statsim profile`, a field that stops (de)serialising
// cleanly would corrupt every consumer downstream. The fuzzer varies
// the profile shape (order, workload seed, stream length) and checks
// that Save -> Load -> Save reproduces the bytes exactly (the format is
// canonical) and that the reloaded graph is semantically identical to
// the loaded one and structurally consistent with the original.
func FuzzSaveLoadRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(3), uint16(3000))
	f.Add(uint8(0), uint64(7), uint16(500))
	f.Add(uint8(2), uint64(0xfeed), uint16(8000))
	f.Add(uint8(4), uint64(1), uint16(1200))
	f.Fuzz(func(t *testing.T, k uint8, seed uint64, n uint16) {
		k %= MaxK + 1
		if n < 100 {
			n = 100
		}
		prog := program.MustGenerate(program.Personality{
			Name: "fuzz", Seed: seed | 1, TargetBlocks: 40,
		})
		src := &trace.LimitSource{Src: program.NewExecutor(prog, 1), N: uint64(n)}
		g, err := Profile(src, defaultOpts(int(k)))
		if err != nil {
			t.Skip() // degenerate stream, not a serialisation problem
		}

		var buf1 bytes.Buffer
		if err := g.Save(&buf1); err != nil {
			t.Fatalf("save: %v", err)
		}
		g1, err := Load(bytes.NewReader(buf1.Bytes()))
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if g1.K != g.K || g1.NumNodes() != g.NumNodes() || g1.NumEdges() != g.NumEdges() ||
			g1.TotalInstructions != g.TotalInstructions || g1.TotalBlocks != g.TotalBlocks {
			t.Fatal("loaded graph shape diverges from original")
		}

		var buf2 bytes.Buffer
		if err := g1.Save(&buf2); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatal("Save -> Load -> Save changed the bytes")
		}
		g2, err := Load(bytes.NewReader(buf2.Bytes()))
		if err != nil {
			t.Fatalf("re-load: %v", err)
		}
		// One decode is a fixed point: everything the wire format
		// carries survived the first trip, so the second must reproduce
		// it exactly (including rebuilt indexes and adjacency).
		if !reflect.DeepEqual(g1, g2) {
			t.Fatal("second round trip diverges: wire format drops or mutates state")
		}
	})
}

// FuzzLoad feeds Load arbitrary bytes, seeded with valid encodings at
// every order and with a non-default DepMax. Load must never panic; it
// must allocate at most a small multiple of the input's length, beyond
// the dense count arrays (8·(Max+1) bytes per histogram with more
// values than a sparse histogram keeps) that a loaded graph keeps by
// design and that Load allocates only once the whole input has checked
// out; and any input it accepts must re-encode to the same bytes, so
// every graph has one canonical form.
func FuzzLoad(f *testing.F) {
	for k := 0; k <= MaxK; k++ {
		f.Add(seedEncoding(f, defaultOpts(k)))
	}
	opts := defaultOpts(1)
	opts.DepMax = 100
	f.Add(seedEncoding(f, opts))
	// Counts that claim far more elements than follow: 2^62 nodes in a
	// few bytes, and as many nodes as 64 KiB could hold followed by
	// zeros (the second empty history repeats the first).
	hdr := []byte{'S', 'F', 'G', 'P', wireVersion, 1, 0, 0}
	f.Add(binary.AppendUvarint(hdr, 1<<62))
	f.Add(append(binary.AppendUvarint(hdr, 32<<10), make([]byte, 64<<10)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		budget := 128*uint64(len(data)) + 64<<10
		if err == nil {
			budget += denseBytes(g)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget {
			t.Fatalf("Load allocated %d bytes for a %d-byte input (budget %d)", alloc, len(data), budget)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatalf("accepted graph does not save: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("accepted input is not the canonical encoding of its graph")
		}
	})
}

func seedEncoding(f *testing.F, opts Options) []byte {
	prog := program.MustGenerate(program.Personality{Name: "fuzz", Seed: 5, TargetBlocks: 12})
	g, err := Profile(&trace.LimitSource{Src: program.NewExecutor(prog, 1), N: 400}, opts)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// promotedSupport is the support past which a stats.Histogram keeps a
// dense count array instead of sparse (value, count) pairs (the
// unexported stats.sparseMax).
const promotedSupport = 32

// denseBytes is the size of the dense count arrays g's histograms hold.
// Sparse pairs need no allowance: each takes at least two input bytes.
func denseBytes(g *Graph) uint64 {
	var n uint64
	for _, e := range g.Edges {
		for i := range e.Insts {
			for p := 0; p <= wawBit; p++ {
				h := *e.Insts[i].hist(p)
				if h == nil {
					continue
				}
				support := 0
				h.ContainsFunc(func(int) bool { support++; return false })
				if support > promotedSupport {
					n += 8 * uint64(h.Max+1)
				}
			}
		}
	}
	return n
}
