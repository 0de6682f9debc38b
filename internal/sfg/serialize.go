package sfg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/isa"
	"repro/internal/stats"
)

// The profile byte format, version 2. After the four magic bytes every
// field is a minimal uvarint, or a zigzag varint where marked (±):
//
//	version, K, TotalInstructions, TotalBlocks
//	node count; per node: history length n (<= K), n block IDs (±), Occ
//	edge count; per edge: From, To, Block (±), Count, the 13 branch and
//	  locality counters in Edge's declaration order, instruction count;
//	  per instruction: Class, NumSrcs, a presence mask (bit p for Dep[p],
//	  then WAW, then Addr), the six slot miss counters, each present
//	  histogram in stats' byte form (Dep in operand order, then WAW),
//	  and a present AddrProfile as Count, First, Min, Max, Overflow, the
//	  stride count and (stride (±), count) pairs in increasing stride
//	  order.
//
// IDs are positions, and indexes and adjacency are rebuilt on load. The
// format has no optional encodings and no unordered sections, so one
// graph always encodes to one byte string and Load accepts exactly the
// strings Save can write.
var wireMagic = [4]byte{'S', 'F', 'G', 'P'}

const wireVersion = 2

// Presence-mask bits after the isa.MaxSrcOperands Dep bits.
const (
	wawBit  = isa.MaxSrcOperands
	addrBit = isa.MaxSrcOperands + 1
)

// Smallest encodings, used to bound each element count by the bytes
// left before anything is sized from it.
const (
	minNodeBytes = 2  // n, Occ
	minEdgeBytes = 18 // From, To, Block, Count, 13 counters, instruction count
	minInstBytes = 9  // Class, NumSrcs, mask, 6 counters
)

func (e *Edge) counters() [13]*uint64 {
	return [13]*uint64{
		&e.BrCount, &e.BrTaken, &e.BrMispredict, &e.BrRedirect,
		&e.Fetches, &e.L1IMiss, &e.L2IMiss, &e.ITLBMiss,
		&e.Loads, &e.L1DMiss, &e.L2DMiss, &e.DTLBMiss,
		&e.Stores,
	}
}

func (ip *InstProfile) counters() [6]*uint64 {
	return [6]*uint64{&ip.L1IMiss, &ip.L2IMiss, &ip.ITLBMiss, &ip.L1DMiss, &ip.L2DMiss, &ip.DTLBMiss}
}

// hist returns the histogram slot of presence-mask bit p <= wawBit.
func (ip *InstProfile) hist(p int) **stats.Histogram {
	if p == wawBit {
		return &ip.WAW
	}
	return &ip.Dep[p]
}

func (a *AddrProfile) scalars() [5]*uint64 {
	return [5]*uint64{&a.Count, &a.First, &a.Min, &a.Max, &a.Overflow}
}

// Save serialises the graph in the profile byte format so a statistical
// profile can be measured once and reused across many design-space
// simulations. Save only reads the graph, so on a frozen graph it may
// run while other goroutines sample it.
func (g *Graph) Save(w io.Writer) error {
	b, err := g.appendBinary(make([]byte, 0, g.sizeHint()))
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// sizeHint estimates the encoded size from the element counts so the
// buffer seldom has to grow and copy.
func (g *Graph) sizeHint() int {
	n := 64 + 8*len(g.Nodes) + 24*len(g.Edges)
	for _, e := range g.Edges {
		n += 40 * len(e.Insts)
		for i := range e.Insts {
			if a := e.Insts[i].Addr; a != nil {
				n += 4 * len(a.Strides)
			}
		}
	}
	return n
}

func (g *Graph) appendBinary(b []byte) ([]byte, error) {
	b = append(b, wireMagic[:]...)
	b = binary.AppendUvarint(b, wireVersion)
	b = binary.AppendUvarint(b, uint64(g.K))
	b = binary.AppendUvarint(b, g.TotalInstructions)
	b = binary.AppendUvarint(b, g.TotalBlocks)
	b = binary.AppendUvarint(b, uint64(len(g.Nodes)))
	for _, n := range g.Nodes {
		if int(n.Hist.n) > g.K {
			return nil, fmt.Errorf("sfg: node %d history longer than k=%d", n.ID, g.K)
		}
		b = binary.AppendUvarint(b, uint64(n.Hist.n))
		for _, blk := range n.Hist.b[:n.Hist.n] {
			b = binary.AppendVarint(b, int64(blk))
		}
		b = binary.AppendUvarint(b, n.Occ)
	}
	b = binary.AppendUvarint(b, uint64(len(g.Edges)))
	for _, e := range g.Edges {
		b = binary.AppendUvarint(b, uint64(e.From))
		b = binary.AppendUvarint(b, uint64(e.To))
		b = binary.AppendVarint(b, int64(e.Block))
		b = binary.AppendUvarint(b, e.Count)
		for _, c := range e.counters() {
			b = binary.AppendUvarint(b, *c)
		}
		b = binary.AppendUvarint(b, uint64(len(e.Insts)))
		for i := range e.Insts {
			ip := &e.Insts[i]
			if ip.Class >= isa.NumClasses || ip.NumSrcs > isa.MaxSrcOperands {
				return nil, fmt.Errorf("sfg: edge %d slot %d: class or operand count out of range", e.ID, i)
			}
			var mask uint64
			for p := 0; p <= wawBit; p++ {
				if *ip.hist(p) != nil {
					mask |= 1 << p
				}
			}
			if ip.Addr != nil {
				mask |= 1 << addrBit
			}
			b = binary.AppendUvarint(b, uint64(ip.Class))
			b = binary.AppendUvarint(b, uint64(ip.NumSrcs))
			b = binary.AppendUvarint(b, mask)
			for _, c := range ip.counters() {
				b = binary.AppendUvarint(b, *c)
			}
			for p := 0; p <= wawBit; p++ {
				if h := *ip.hist(p); h != nil {
					var err error
					if b, err = h.AppendBinary(b); err != nil {
						return nil, fmt.Errorf("sfg: edge %d slot %d: %w", e.ID, i, err)
					}
				}
			}
			a := ip.Addr
			if a == nil {
				continue
			}
			for _, s := range a.scalars() {
				b = binary.AppendUvarint(b, *s)
			}
			if len(a.Strides) > MaxDistinctStrides {
				return nil, fmt.Errorf("sfg: edge %d slot %d: more than %d strides", e.ID, i, MaxDistinctStrides)
			}
			b = binary.AppendUvarint(b, uint64(len(a.Strides)))
			for j, s := range a.Strides {
				switch {
				case s.Count == 0:
					return nil, fmt.Errorf("sfg: edge %d slot %d: stride %d has a zero count", e.ID, i, s.Delta)
				case j > 0 && s.Delta <= a.Strides[j-1].Delta:
					return nil, fmt.Errorf("sfg: edge %d slot %d: strides out of order or repeated", e.ID, i)
				}
				b = binary.AppendVarint(b, s.Delta)
				b = binary.AppendUvarint(b, s.Count)
			}
		}
	}
	return b, nil
}

// Load deserialises a graph written by Save, rebuilding indexes and
// adjacency, and validates the result. It reads r to the end: bytes
// after the graph are an error, as is any encoding Save would not have
// written. Every count is checked against the bytes left before it
// sizes an allocation, and the histograms' dense count arrays are only
// allocated once the whole input has been checked.
func Load(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sfg: reading profile: %w", err)
	}
	if len(data) < len(wireMagic) || [4]byte(data[:4]) != wireMagic {
		return nil, errors.New("sfg: not a profile in this build's format (profiles written by earlier builds must be re-profiled)")
	}
	d := &decoder{b: data, off: len(wireMagic)}
	if v := d.uvarint(); d.err == nil && v != wireVersion {
		return nil, fmt.Errorf("sfg: unsupported profile version %d (this build reads version %d; re-profile)", v, wireVersion)
	}
	g, hists := d.graph()
	if d.err == nil && d.off != len(data) {
		d.fail("%d trailing bytes", len(data)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("sfg: loaded profile invalid: %w", err)
	}
	for _, ph := range hists {
		h, _, err := stats.DecodeHistogram(data[ph.off:])
		if err != nil {
			return nil, fmt.Errorf("sfg: decoding profile: %w", err)
		}
		*ph.dst = h
	}
	return g, nil
}

// decoder reads the profile byte format. The first error sticks: later
// reads return zero values, so parsing reads straight through and
// checks d.err where a value sizes or indexes something.
type decoder struct {
	b   []byte
	off int
	err error
}

// pendingHist is a checked histogram's offset in the input and the slot
// its decoded form goes into once the whole graph has checked out.
type pendingHist struct {
	off int
	dst **stats.Histogram
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sfg: decoding profile at byte %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	// binary.Uvarint also accepts padded forms (a multi-byte encoding
	// ending in a zero byte); one value has one accepted encoding here.
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("truncated or malformed varint")
		return 0
	}
	d.off += n
	return v
}

// varint reads a zigzag varint.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *decoder) int32() int32 {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("value %d out of int32 range", v)
	}
	return int32(v)
}

// below reads a uvarint that must be less than n.
func (d *decoder) below(n uint64, what string) int {
	v := d.uvarint()
	if v >= n {
		d.fail("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// count reads an element count, each element taking at least minBytes.
func (d *decoder) count(minBytes int, what string) int {
	return d.below(uint64((len(d.b)-d.off)/minBytes)+1, what+" count")
}

func (d *decoder) graph() (*Graph, []pendingHist) {
	k := d.below(MaxK+1, "order")
	if d.err != nil {
		return nil, nil
	}
	g := NewGraph(k)
	g.TotalInstructions = d.uvarint()
	g.TotalBlocks = d.uvarint()

	nodes := make([]Node, d.count(minNodeBytes, "node"))
	g.Nodes = make([]*Node, len(nodes))
	g.nodeIdx = make(map[histKey]int32, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		n.ID = int32(i)
		n.Hist = emptyHist()
		n.Hist.n = uint8(d.below(uint64(k)+1, "history length"))
		for j := range n.Hist.b[:n.Hist.n] {
			n.Hist.b[j] = d.int32()
		}
		n.Occ = d.uvarint()
		if d.err != nil {
			return nil, nil
		}
		if _, dup := g.nodeIdx[n.Hist]; dup {
			d.fail("node %d repeats a history", i)
			return nil, nil
		}
		g.Nodes[i] = n
		g.nodeIdx[n.Hist] = n.ID
	}

	var hists []pendingHist
	edges := make([]Edge, d.count(minEdgeBytes, "edge"))
	g.Edges = make([]*Edge, len(edges))
	g.edgeIdx = make(map[edgeKey]int32, len(edges))
	for i := range edges {
		e := &edges[i]
		e.ID = int32(i)
		e.From = int32(d.below(uint64(len(nodes)), "edge source"))
		e.To = int32(d.below(uint64(len(nodes)), "edge destination"))
		e.Block = d.int32()
		e.Count = d.uvarint()
		for _, c := range e.counters() {
			*c = d.uvarint()
		}
		e.Insts = make([]InstProfile, d.count(minInstBytes, "instruction"))
		for j := range e.Insts {
			hists = d.inst(&e.Insts[j], hists)
		}
		if d.err != nil {
			return nil, nil
		}
		key := edgeKey{from: e.From, block: e.Block}
		if _, dup := g.edgeIdx[key]; dup {
			d.fail("edge %d repeats an edge", i)
			return nil, nil
		}
		g.Edges[i] = e
		g.edgeIdx[key] = e.ID
		g.Nodes[e.From].Out = append(g.Nodes[e.From].Out, e.ID)
		g.Nodes[e.To].In = append(g.Nodes[e.To].In, e.ID)
	}
	return g, hists
}

// inst reads one instruction slot into ip, appending its histograms to
// hists as pending: they are checked here and decoded by Load.
func (d *decoder) inst(ip *InstProfile, hists []pendingHist) []pendingHist {
	ip.Class = isa.Class(d.below(isa.NumClasses, "class"))
	ip.NumSrcs = uint8(d.below(isa.MaxSrcOperands+1, "operand count"))
	mask := d.below(1<<(addrBit+1), "presence mask")
	for _, c := range ip.counters() {
		*c = d.uvarint()
	}
	for p := 0; p <= wawBit && d.err == nil; p++ {
		if mask&(1<<p) == 0 {
			continue
		}
		n, err := stats.HistogramLen(d.b[d.off:])
		if err != nil {
			d.fail("%v", err)
			break
		}
		hists = append(hists, pendingHist{off: d.off, dst: ip.hist(p)})
		d.off += n
	}
	if mask&(1<<addrBit) == 0 || d.err != nil {
		return hists
	}
	a := &AddrProfile{}
	for _, s := range a.scalars() {
		*s = d.uvarint()
	}
	n := d.below(min(MaxDistinctStrides, uint64(len(d.b)-d.off)/2)+1, "stride count")
	if n > 0 && d.err == nil {
		a.Strides = make([]Stride, 0, n)
	}
	for j := 0; j < n && d.err == nil; j++ {
		s, c := d.varint(), d.uvarint()
		switch {
		case d.err != nil:
		case j > 0 && s <= a.Strides[j-1].Delta:
			d.fail("strides out of order or repeated")
		case c == 0:
			d.fail("stride %d has a zero count", s)
		default:
			a.Strides = append(a.Strides, Stride{Delta: s, Count: c})
		}
	}
	ip.Addr = a
	return hists
}
