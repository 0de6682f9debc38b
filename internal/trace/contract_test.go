package trace_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/hls"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/sfg"
	"repro/internal/synth"
	"repro/internal/trace"
)

// contractLen is the length of the executor-backed streams under the
// contract: a few full chunks and a partial one.
const contractLen = 3*trace.DefaultBatchSize + 100

// impl is one Source implementation under the contract. open returns a
// fresh source over the same stream each time; want, when set, is the
// stream it must yield.
type impl struct {
	name string
	open func() trace.Source
	want []trace.DynInst
}

// impls builds every Source implementation in the module once: the
// executor's stream through each wrapper, and the two generators over
// profiles of that stream.
var impls = sync.OnceValue(func() []impl {
	prog := program.MustGenerate(program.Personality{Name: "contract", Seed: 3, TargetBlocks: 60})
	exec := func(n uint64) trace.Source { return &trace.LimitSource{Src: program.NewExecutor(prog, 3), N: n} }
	insts := program.NewExecutor(prog, 3).Run(contractLen)
	var file bytes.Buffer
	if _, err := trace.WriteTrace(&file, trace.NewSliceSource(insts)); err != nil {
		panic(err)
	}
	g, err := sfg.Profile(exec(40_000), sfg.Options{K: 1, Hier: cache.DefaultConfig(), Bpred: bpred.DefaultConfig()})
	if err != nil {
		panic(err)
	}
	reduce := func(opts synth.Options) *synth.Reduced {
		r, err := synth.Reduce(g, opts)
		if err != nil {
			panic(err)
		}
		return r
	}
	plain, addrs := reduce(synth.Options{R: 8}), reduce(synth.Options{R: 8, SyntheticAddresses: true})
	annotate := func() trace.Source {
		return hls.Annotate(exec(contractLen), cache.DefaultConfig(), bpred.DefaultConfig())
	}
	hp, err := hls.ProfileStream(annotate())
	if err != nil {
		panic(err)
	}
	return []impl{
		{"SliceSource", func() trace.Source { return trace.NewSliceSource(insts) }, insts},
		{"LimitSource", func() trace.Source { return exec(contractLen) }, insts},
		{"FuncSource", func() trace.Source {
			pos := 0
			return trace.FuncSource(func(out *trace.DynInst) bool {
				if pos == len(insts) {
					return false
				}
				*out = insts[pos]
				pos++
				return true
			})
		}, insts},
		{"Reader", func() trace.Source {
			r, err := trace.NewReader(bytes.NewReader(file.Bytes()))
			if err != nil {
				panic(err)
			}
			return r
		}, insts},
		{"TimedSource", func() trace.Source { return obs.NewTimedSource(trace.NewSliceSource(insts)) }, insts},
		{"synth.TraceSource", func() trace.Source { return plain.NewTrace(5) }, nil},
		{"synth.SyntheticAddresses", func() trace.Source { return addrs.NewTrace(5) }, nil},
		{"hls.TraceSource", func() trace.Source { return hp.NewTrace(contractLen, 5) }, nil},
		{"hls.Annotate", annotate, nil},
	}
})

// garble overwrites every byte of dst with random bits, so a record a
// producer leaves partly unset reads differently on every pass.
func garble(rng *rand.Rand, dst []trace.DynInst) {
	if len(dst) > 0 {
		rng.Read(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(dst)*int(unsafe.Sizeof(dst[0]))))
	}
}

// drain reads src to its end with chunk sizes drawn from size, garbling
// each chunk before the call, and checks every return against the
// contract: within the chunk, and 0 forever once it has been 0.
func drain(t testing.TB, src trace.Source, rng *rand.Rand, size func() int) []trace.DynInst {
	t.Helper()
	var out []trace.DynInst
	buf := make([]trace.DynInst, trace.DefaultBatchSize)
	for {
		chunk := buf[:size()]
		garble(rng, chunk)
		n := src.NextBatch(chunk)
		if n < 0 || n > len(chunk) {
			t.Fatalf("NextBatch(%d) returned %d", len(chunk), n)
		}
		if n == 0 {
			break
		}
		out = append(out, chunk[:n]...)
	}
	for _, k := range []int{1, 7, len(buf)} {
		garble(rng, buf[:k])
		if n := src.NextBatch(buf[:k]); n != 0 {
			t.Fatalf("NextBatch(%d) after end of stream returned %d", k, n)
		}
	}
	return out
}

// checkSource drains a fresh source of im with the given chunk sizes
// and compares the records with want.
func checkSource(t testing.TB, im impl, want []trace.DynInst, rng *rand.Rand, size func() int) {
	t.Helper()
	src := im.open()
	got := drain(t, src, rng, size)
	if i := mismatch(got, want); i >= 0 {
		t.Fatalf("%s: streams differ at record %d of %d/%d", im.name, i, len(got), len(want))
	}
	if ts, ok := src.(*obs.TimedSource); ok && ts.Instructions() != uint64(len(want)) {
		t.Fatalf("TimedSource counted %d instructions, want %d", ts.Instructions(), len(want))
	}
}

// mismatch returns the first index where a and b differ, or -1.
func mismatch(a, b []trace.DynInst) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// reference is im's stream: its known records, or a full-chunk read.
func reference(t testing.TB, im impl) []trace.DynInst {
	if im.want != nil {
		return im.want
	}
	rng := rand.New(rand.NewSource(1))
	return drain(t, im.open(), rng, func() int { return trace.DefaultBatchSize })
}

func fixed(n int) func() int { return func() int { return n } }

// TestSourceContract reads every Source implementation with chunk
// sizes 1, 7, 1,024 and a random mix of sizes: each must yield the same
// records, fully initialised over garbage, with a sticky end of stream.
func TestSourceContract(t *testing.T) {
	for _, im := range impls() {
		t.Run(im.name, func(t *testing.T) {
			want := reference(t, im)
			if len(want) < 2*trace.DefaultBatchSize {
				t.Fatalf("stream of %d records is too short to span chunks", len(want))
			}
			mix := rand.New(rand.NewSource(2))
			for _, size := range []struct {
				name string
				next func() int
			}{
				{"1", fixed(1)},
				{"7", fixed(7)},
				{"1024", fixed(trace.DefaultBatchSize)},
				{"mix", func() int { return 1 + mix.Intn(trace.DefaultBatchSize) }},
			} {
				rng := rand.New(rand.NewSource(3))
				t.Run(size.name, func(t *testing.T) { checkSource(t, im, want, rng, size.next) })
			}
		})
	}
}

// FuzzSourceContract reads every implementation with the chunk sizes
// the input spells out (byte b asks for 1+4b records, cycling) and
// checks the records against its reference stream.
func FuzzSourceContract(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add([]byte{255, 0, 3})
	f.Add([]byte{17, 200, 1, 1, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		for _, im := range impls() {
			want := reference(t, im)
			i := 0
			size := func() int {
				b := data[i%len(data)]
				i++
				return 1 + 4*int(b)
			}
			checkSource(t, im, want, rand.New(rand.NewSource(int64(len(data)))), size)
		}
	})
}
