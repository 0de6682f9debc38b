// Package sfg implements the paper's central contribution: the
// statistical flow graph (SFG) and the profiler that builds one from a
// program execution (§2.1).
//
// An order-k SFG has one node per observed k-tuple of consecutive basic
// blocks (the "history"); for k=1 nodes are single basic blocks, for
// k=0 there is a single node. An edge leaves node H=(b1..bk) for every
// basic block c observed to follow that history, leading to the shifted
// node (b2..bk,c). Edges carry everything the synthetic-trace generator
// needs about block c *in that context*:
//
//   - per-instruction classes and operand counts,
//   - per-operand dependency-distance distributions, bounded at 512
//     (§2.1.1: Prob[D | Bn, Bn-1, ..., Bn-k]),
//   - branch characteristics measured under delayed predictor update
//     (taken / fetch-redirection / misprediction probabilities),
//   - cache and TLB miss statistics (§2.1.2).
package sfg

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/stats"
)

// MaxK is the largest supported SFG order. The paper evaluates k = 0..3
// and finds k = 1 sufficient (§4.2.1).
const MaxK = 4

// histKey identifies a node: the IDs of the k most recent basic blocks,
// most recent last. Unused trailing slots are -1.
type histKey struct {
	n uint8 // valid entries (< k only during stream warm-up)
	b [MaxK]int32
}

func emptyHist() histKey {
	var h histKey
	for i := range h.b {
		h.b[i] = -1
	}
	return h
}

// shift appends block c to the history, dropping the oldest entry once
// k blocks are present. For k = 0 the history stays empty.
func (h histKey) shift(c int32, k int) histKey {
	if k == 0 {
		return h
	}
	if int(h.n) < k {
		h.b[h.n] = c
		h.n++
		return h
	}
	copy(h.b[:k-1], h.b[1:k])
	h.b[k-1] = c
	return h
}

// InstProfile holds the statistics of one instruction slot of a basic
// block in one SFG context. Locality events are slot-resolved: the
// paper annotates cache characteristics per edge, but individual loads
// within a block can behave very differently (a hot stride walk next to
// a cold pointer chase), and assigning edge-average miss rates to every
// slot moves the memory latency onto the wrong dependency chains. The
// slot resolution is the same conditioning — P[event | slot, Bn,
// Bn-1..Bn-k] — just not averaged across the block.
type InstProfile struct {
	Class   isa.Class
	NumSrcs uint8
	// Dep[p] is the dependency-distance distribution of operand p; nil
	// until the operand is first observed with a RAW dependency.
	Dep [isa.MaxSrcOperands]*stats.Histogram
	// WAW is the output-dependency distance distribution (distance to
	// the previous writer of the destination register); nil until
	// observed. Only in-order simulation consumes it — renaming removes
	// WAW hazards in the out-of-order pipeline (§2.1.1).
	WAW *stats.Histogram

	// I-side events of this slot (denominator is the edge count).
	L1IMiss, L2IMiss, ITLBMiss uint64
	// D-side events (loads only; denominator is the edge count).
	L1DMiss, L2DMiss, DTLBMiss uint64

	// Addr models the slot's address stream (memory slots only); it
	// powers the synthetic-address extension (see AddrProfile).
	Addr *AddrProfile
}

// Edge is a transition of the SFG: from node From, basic block Block
// executes next, leading to node To.
type Edge struct {
	ID    int32
	From  int32
	To    int32
	Block int32
	Count uint64

	Insts []InstProfile

	// Branch characteristics of the block-terminating branch (§2.1.2),
	// measured with the configured update discipline.
	BrCount, BrTaken, BrMispredict, BrRedirect uint64

	// Cache/TLB characteristics (§2.1.2), annotated per edge.
	Fetches, L1IMiss, L2IMiss, ITLBMiss uint64
	Loads, L1DMiss, L2DMiss, DTLBMiss   uint64
	Stores                              uint64
}

// Node is one history state of the SFG.
type Node struct {
	ID   int32
	Hist histKey
	Occ  uint64 // times this state was reached
	Out  []int32
	In   []int32
}

// CurrentBlock returns the basic block the walk is "in" at this node —
// the most recent history element. It is -1 for the k = 0 node and
// during warm-up before any block executed.
func (n *Node) CurrentBlock() int32 {
	if n.Hist.n == 0 {
		return -1
	}
	return n.Hist.b[n.Hist.n-1]
}

// Graph is a complete statistical flow graph (one statistical profile).
type Graph struct {
	K     int
	Nodes []*Node
	Edges []*Edge

	TotalInstructions uint64
	TotalBlocks       uint64

	nodeIdx map[histKey]int32
	edgeIdx map[edgeKey]int32
}

type edgeKey struct {
	from  int32
	block int32
}

// NewGraph returns an empty order-k graph.
func NewGraph(k int) *Graph {
	if k < 0 || k > MaxK {
		panic(fmt.Sprintf("sfg: order %d outside [0,%d]", k, MaxK))
	}
	return &Graph{
		K:       k,
		nodeIdx: make(map[histKey]int32),
		edgeIdx: make(map[edgeKey]int32),
	}
}

// NumNodes returns the node count (the Table 3 metric).
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// node returns (creating if necessary) the node for history h.
func (g *Graph) node(h histKey) *Node {
	if id, ok := g.nodeIdx[h]; ok {
		return g.Nodes[id]
	}
	n := &Node{ID: int32(len(g.Nodes)), Hist: h}
	g.Nodes = append(g.Nodes, n)
	g.nodeIdx[h] = n.ID
	return n
}

// edge returns (creating if necessary) the edge from node from for
// block, wiring it to the shifted destination node.
func (g *Graph) edge(from *Node, block int32) *Edge {
	// Out holds every edge leaving from, so a short scan is a complete
	// lookup; loop bodies and two-way branches resolve within a couple
	// of compares, skipping the map hash. High-degree nodes (indirect
	// branches) fall back to the index map.
	if out := from.Out; len(out) <= 8 {
		for _, eid := range out {
			if e := g.Edges[eid]; e.Block == block {
				return e
			}
		}
	} else if id, ok := g.edgeIdx[edgeKey{from: from.ID, block: block}]; ok {
		return g.Edges[id]
	}
	to := g.node(from.Hist.shift(block, g.K))
	e := &Edge{ID: int32(len(g.Edges)), From: from.ID, To: to.ID, Block: block}
	g.Edges = append(g.Edges, e)
	g.edgeIdx[edgeKey{from: from.ID, block: block}] = e.ID
	from.Out = append(from.Out, e.ID)
	to.In = append(to.In, e.ID)
	return e
}

// Freeze prepares the graph for concurrent read-only use and sheds its
// profiling-era storage: every dependency histogram becomes its
// sampling table (the only lazily written state a finished profile
// carries), and each edge's slot list and each memory slot's stride
// table move to backing arrays of exactly their length. A frozen graph
// can feed any number of simultaneous synthetic-trace generations —
// which is what a parallel design-space sweep or a caching simulation
// server does with one profile. Freeze is idempotent and cheap relative
// to profiling, and on a frozen graph it writes nothing; it must not
// run concurrently with profiling or with the first Freeze of the same
// graph.
func (g *Graph) Freeze() {
	for _, e := range g.Edges {
		if cap(e.Insts) > len(e.Insts) {
			e.Insts = append(make([]InstProfile, 0, len(e.Insts)), e.Insts...)
		}
		for i := range e.Insts {
			ip := &e.Insts[i]
			for _, h := range ip.Dep {
				if h != nil {
					h.Freeze()
				}
			}
			if ip.WAW != nil {
				ip.WAW.Freeze()
			}
			if ip.Addr != nil {
				ip.Addr.freeze()
			}
		}
	}
}

// Validate checks the structural invariants of a built graph: node
// occurrences sum to the block count, every edge connects existing
// nodes with the correct shifted history, and per-edge counters are
// mutually consistent.
func (g *Graph) Validate() error {
	var occ uint64
	for _, n := range g.Nodes {
		occ += n.Occ
	}
	if occ != g.TotalBlocks {
		return fmt.Errorf("sfg: node occurrences %d != total blocks %d", occ, g.TotalBlocks)
	}
	for _, e := range g.Edges {
		if e.From < 0 || int(e.From) >= len(g.Nodes) || e.To < 0 || int(e.To) >= len(g.Nodes) {
			return fmt.Errorf("sfg: edge %d endpoints out of range", e.ID)
		}
		from, to := g.Nodes[e.From], g.Nodes[e.To]
		if want := from.Hist.shift(e.Block, g.K); to.Hist != want {
			return fmt.Errorf("sfg: edge %d destination history mismatch", e.ID)
		}
		if e.BrMispredict+e.BrRedirect > e.BrCount {
			return fmt.Errorf("sfg: edge %d branch counters inconsistent", e.ID)
		}
		if e.L1IMiss > e.Fetches || e.L2IMiss > e.L1IMiss {
			return fmt.Errorf("sfg: edge %d I-side counters inconsistent", e.ID)
		}
		if e.L1DMiss > e.Loads || e.L2DMiss > e.L1DMiss {
			return fmt.Errorf("sfg: edge %d D-side counters inconsistent", e.ID)
		}
		if len(e.Insts) == 0 {
			return fmt.Errorf("sfg: edge %d has no instruction profile", e.ID)
		}
	}
	return nil
}
