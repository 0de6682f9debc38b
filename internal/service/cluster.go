package service

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sfg"
)

// The cluster tier lifts the daemon's two amortisation seams — the
// content-keyed profile cache and the grid-order sweep engine — across
// nodes. The service package defines the seam (this interface and the
// wire types); internal/cluster implements it; cmd/statsimd wires the
// two together. Keeping the dependency one-directional (cluster imports
// service, never the reverse) lets every handler below stay testable
// with a fake.
//
// Correctness rests on the same determinism argument as the local
// paths: a profile is a pure function of its ProfileKey, and a sweep
// point's metrics are a pure function of (point, graph, reduction,
// seed). A graph fetched from a peer is therefore bit-identical to one
// profiled locally, and a point computed on any node — before or after
// a failover — serialises byte-identically to the single-node result.
// The cluster's job is only to survive the failures in between.

// ErrNoRemoteGraph reports that no replica peer holds the requested
// profile (distinct from peers being unreachable): the caller profiles
// locally and offers the result back to the key's owners.
var ErrNoRemoteGraph = errors.New("service: no cluster peer holds the profile")

// Cluster is the daemon's view of its peer group. Implementations must
// be safe for concurrent use; every method observes ctx for
// cancellation. nil means single-node.
type Cluster interface {
	// FetchGraph retrieves key's graph from its replica peers (hedged
	// across replicas, retried per RPC). It returns the serving peer's
	// name, or ErrNoRemoteGraph when no reachable replica holds it.
	FetchGraph(ctx context.Context, key ProfileKey) (*sfg.Graph, string, error)
	// OfferGraph replicates a freshly profiled graph to the key's owner
	// peers, best-effort and asynchronously — a failed offer costs a
	// future re-profile somewhere, never this request.
	OfferGraph(ctx context.Context, key ProfileKey, g *sfg.Graph)
	// SweepPending computes job.Pending across the healthy peers plus
	// this node, calling job.Report once per completed batch. It returns
	// only on fatal errors (cancellation, local compute failure); losing
	// a peer triggers re-partitioning, not failure.
	SweepPending(ctx context.Context, job ClusterSweepJob) error
	// Status describes ring membership and per-peer health.
	Status() ClusterStatus
	// Stats snapshots the coordinator-side counters.
	Stats() ClusterStats
	// PeerMetrics scrapes one peer's Prometheus exposition, for the
	// coordinator's merged fleet view at GET /v1/cluster/metrics.
	PeerMetrics(ctx context.Context, peer string) ([]byte, error)
}

// ClusterSweepJob is one partitioned sweep as handed to the
// coordinator. Points is the full grid (so indices keep their global
// meaning for journaling); Pending are the indices still to compute.
type ClusterSweepJob struct {
	Profile ProfileSpec
	Config  ConfigSpec
	Points  []SweepPoint
	Pending []int
	Target  uint64
	SimSeed uint64

	// Report is called once per completed remote chunk, one durable
	// commit each, with ms[k] belonging to indices[k]. Calls arrive
	// concurrently from dispatch goroutines; index values are disjoint
	// across calls.
	Report func(indices []int, ms []core.Metrics)
	// ReportCost, when non-nil, records one completed point's cost
	// ledger entry (tier, executing node, cohort, wall time). Same
	// concurrency contract as Report.
	ReportCost func(index int, c PointCost)
	// Local computes the given indices on this node's own pool and
	// commits each lockstep group as Report commits a chunk — the
	// coordinator's executor of last resort, so a sweep completes even
	// with every remote peer dead.
	Local func(ctx context.Context, indices []int) error
	// Failover, when non-nil, is told each time a peer was lost and its
	// unfinished points re-partitioned.
	Failover func(peer string, points int)
}

// PeerStatus is one peer's health as the coordinator sees it. Build
// carries the peer's self-reported provenance from its last successful
// health probe, so /v1/cluster/status shows at a glance which revision
// every node runs.
type PeerStatus struct {
	Name                string     `json:"name"`
	Healthy             bool       `json:"healthy"`
	ConsecutiveFailures int        `json:"consecutive_failures,omitempty"`
	LastProbe           time.Time  `json:"last_probe,omitempty"`
	LastError           string     `json:"last_error,omitempty"`
	Ejections           uint64     `json:"ejections,omitempty"`
	Build               *BuildInfo `json:"build,omitempty"`
}

// ClusterStatus is the GET /v1/cluster/status body: ring membership and
// peer health.
type ClusterStatus struct {
	Self        string       `json:"self"`
	Replication int          `json:"replication"`
	Peers       []PeerStatus `json:"peers"`
}

// ClusterStats counts the coordinator side of cluster activity; the
// serving side (peer RPCs answered) is counted by the Server itself.
type ClusterStats struct {
	PeersTotal   int `json:"peers_total"`
	PeersHealthy int `json:"peers_healthy"`

	Probes       uint64 `json:"probes"`
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`

	GraphFetchHits   uint64 `json:"graph_fetch_hits"`
	GraphFetchMisses uint64 `json:"graph_fetch_misses"`
	GraphFetchErrors uint64 `json:"graph_fetch_errors"`
	HedgedFetches    uint64 `json:"hedged_fetches"`
	HedgeWins        uint64 `json:"hedge_wins"`

	OffersSent    uint64 `json:"offers_sent"`
	OfferFailures uint64 `json:"offer_failures"`

	RemotePoints        uint64 `json:"remote_points"`
	LocalPoints         uint64 `json:"local_points"`
	Failovers           uint64 `json:"failovers"`
	RepartitionedPoints uint64 `json:"repartitioned_points"`
	RPCRetries          uint64 `json:"rpc_retries"`
}

// clusterServedStats counts the Server's answering side of peer RPCs.
type clusterServedStats struct {
	graphsServed   atomic.Uint64
	graphsMissing  atomic.Uint64
	offersStored   atomic.Uint64
	offersRejected atomic.Uint64
}

// ClusterServedStats is the wire snapshot of clusterServedStats.
type ClusterServedStats struct {
	GraphsServed   uint64 `json:"graphs_served"`
	GraphsMissing  uint64 `json:"graphs_missing"`
	OffersStored   uint64 `json:"offers_stored"`
	OffersRejected uint64 `json:"offers_rejected"`
}

// ClusterMetrics joins both sides of the cluster counters for the
// /metrics views: the coordinator's (RPCs issued) and the server's
// (RPCs answered).
type ClusterMetrics struct {
	ClusterStats
	Served ClusterServedStats `json:"served"`
}

func (c *clusterServedStats) snapshot() ClusterServedStats {
	return ClusterServedStats{
		GraphsServed:   c.graphsServed.Load(),
		GraphsMissing:  c.graphsMissing.Load(),
		OffersStored:   c.offersStored.Load(),
		OffersRejected: c.offersRejected.Load(),
	}
}

// SetCluster attaches the peer group. It must be called before the
// handler starts serving (cmd/statsimd does it between service.New and
// net.Listen); the fields are not synchronised. The node's advertised
// name stamps every span and ledger entry from here on, so a merged
// trace attributes work to cluster names, not "local".
func (s *Server) SetCluster(c Cluster) {
	s.cluster = c
	if c != nil {
		if self := c.Status().Self; self != "" {
			s.node = self
		}
	}
}

// Cluster returns the attached peer group (nil single-node).
func (s *Server) Cluster() Cluster { return s.cluster }

// Flight exposes the flight recorder so the coordinator can record peer
// ejection and failover events into the same ring the request events
// land in — /v1/debug/requests then explains rerouted requests.
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// targetForReduction inverts core.ReductionFor: the synthetic-trace
// target length that makes a remote node re-derive exactly the given
// reduction factor. The inversion is exact by the divisor-block
// identity — for any r in the image of t ↦ floor(T/t),
// floor(T / floor(T/r)) == r — so a sub-request shaped exactly like a
// client's sweep (target on the wire, reduction re-derived) still
// computes byte-identical metrics.
func targetForReduction(g *sfg.Graph, red uint64) uint64 {
	if red == 0 {
		red = 1
	}
	return g.TotalInstructions / red
}
