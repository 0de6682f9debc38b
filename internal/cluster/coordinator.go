package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sfg"
)

// Config wires a Coordinator. Zero-valued fields take the defaults
// documented per field.
type Config struct {
	// Self is this node's advertised base URL — its name on the ring and
	// the address peers reach it at. Required.
	Self string
	// Peers are the other nodes' base URLs. Self is added to the ring
	// automatically; listing it again is harmless.
	Peers []string
	// Replication is how many distinct owners each profile key has on
	// the ring (default 2, clamped to the node count).
	Replication int
	// ChunkSize bounds one sub-sweep RPC (default 16 points). Smaller
	// chunks lose less work when a peer dies mid-sweep; larger chunks
	// amortise RPC overhead.
	ChunkSize int
	// ProbeInterval is the health-probe period (default 2s);
	// FailThreshold consecutive failures eject a peer and
	// ReadmitThreshold consecutive successes re-admit it (default 2
	// each).
	ProbeInterval    time.Duration
	FailThreshold    int
	ReadmitThreshold int
	// RPCTimeout bounds fetch/offer/probe RPCs (default 5s);
	// SweepTimeout bounds one sub-sweep RPC (default 10m).
	RPCTimeout   time.Duration
	SweepTimeout time.Duration
	// HedgeDelay is how long a graph fetch waits on the first replica
	// before hedging to the second (default 75ms).
	HedgeDelay time.Duration
	// Retry governs fetch/offer RPC retries, with the same semantics as
	// the daemon's job retries (default 3 attempts, 50ms base backoff).
	Retry service.RetryPolicy
	// Transport performs HTTP; nil means http.DefaultTransport. Tests
	// and the chaos suite install a fault.Transport here.
	Transport http.RoundTripper
	// Flight, when non-nil, receives cluster.eject / cluster.readmit /
	// cluster.failover events alongside the request events.
	Flight *obs.FlightRecorder
	// Logger receives coordinator logs (nil discards).
	Logger *slog.Logger
}

func (c Config) withDefaults() (Config, error) {
	if c.Self == "" {
		return c, errors.New("cluster: Config.Self is required")
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 16
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.ReadmitThreshold <= 0 {
		c.ReadmitThreshold = 2
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 5 * time.Second
	}
	if c.SweepTimeout <= 0 {
		c.SweepTimeout = 10 * time.Minute
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 75 * time.Millisecond
	}
	if c.Retry.Attempts == 0 {
		c.Retry = service.RetryPolicy{Attempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c, nil
}

// Coordinator implements service.Cluster over a static peer group. It
// is safe for concurrent use; Start launches the probe loop and Close
// stops it and waits for in-flight async offers.
type Coordinator struct {
	cfg    Config
	ring   *ring
	peers  *peerSet // remote peers only, ring order
	client *client
	log    *slog.Logger

	stopCtx  context.Context
	stopFn   context.CancelFunc
	wg       sync.WaitGroup
	probes   atomic.Uint64
	ejects   atomic.Uint64
	readmits atomic.Uint64

	fetchHits   atomic.Uint64
	fetchMisses atomic.Uint64
	fetchErrors atomic.Uint64
	hedged      atomic.Uint64
	hedgeWins   atomic.Uint64

	offersSent    atomic.Uint64
	offerFailures atomic.Uint64

	remotePoints  atomic.Uint64
	localPoints   atomic.Uint64
	failovers     atomic.Uint64
	repartitioned atomic.Uint64
	rpcRetries    atomic.Uint64
}

// New builds a Coordinator; call Start to begin probing.
func New(cfg Config) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var remote []string
	seen := map[string]bool{cfg.Self: true}
	for _, p := range cfg.Peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		remote = append(remote, p)
	}
	sort.Strings(remote)
	c := &Coordinator{
		cfg:   cfg,
		ring:  newRing(append([]string{cfg.Self}, remote...)),
		peers: newPeerSet(remote),
		log:   cfg.Logger,
	}
	c.stopCtx, c.stopFn = context.WithCancel(context.Background())
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	c.client = &client{
		http:         &http.Client{Transport: transport},
		rpcTimeout:   cfg.RPCTimeout,
		sweepTimeout: cfg.SweepTimeout,
		retry:        cfg.Retry,
		retries:      &c.rpcRetries,
	}
	return c, nil
}

// Start launches the background health-probe loop.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stopCtx.Done():
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Close stops probing and waits for in-flight async work.
func (c *Coordinator) Close() {
	c.stopFn()
	c.wg.Wait()
}

func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, p := range c.peers.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			c.probes.Add(1)
			build, err := c.client.probe(c.stopCtx, p.name)
			if err != nil {
				c.noteFailure(p, err, true)
				return
			}
			p.setBuild(build)
			c.noteSuccess(p, true)
		}(p)
	}
	wg.Wait()
}

// noteFailure funnels every failure observation (probe or data-path
// RPC) through the ejection threshold, recording the ejection event
// exactly once per transition.
func (c *Coordinator) noteFailure(p *peer, err error, probed bool) {
	if p == nil {
		return
	}
	if p.markFailure(err, c.cfg.FailThreshold, probed) {
		c.ejects.Add(1)
		c.log.Warn("cluster peer ejected", "peer", p.name, "err", err.Error())
		c.cfg.Flight.Record(obs.RequestEvent{
			Time: time.Now(), Endpoint: "cluster.eject", Peer: p.name, Error: err.Error(),
		})
	}
}

func (c *Coordinator) noteSuccess(p *peer, probed bool) {
	if p == nil {
		return
	}
	if p.markSuccess(c.cfg.ReadmitThreshold, probed) {
		c.readmits.Add(1)
		c.log.Info("cluster peer re-admitted", "peer", p.name)
		c.cfg.Flight.Record(obs.RequestEvent{
			Time: time.Now(), Endpoint: "cluster.readmit", Peer: p.name,
		})
	}
}

// fetchCandidates returns the healthy remote owners of key, in ring
// (replica-preference) order.
func (c *Coordinator) fetchCandidates(key service.ProfileKey) []*peer {
	var out []*peer
	for _, name := range c.ring.Owners(profileKeyString(key), c.cfg.Replication) {
		if name == c.cfg.Self {
			continue
		}
		if p := c.peers.byName(name); p != nil && p.isHealthy() {
			out = append(out, p)
		}
	}
	return out
}

// FetchGraph implements service.Cluster with a hedged read: the fetch
// goes to the first healthy replica immediately and to the second after
// HedgeDelay; the first success wins and the loser is cancelled. A
// definitive miss on every reachable replica is ErrNoRemoteGraph — the
// caller profiles locally.
func (c *Coordinator) FetchGraph(ctx context.Context, key service.ProfileKey) (*sfg.Graph, string, error) {
	candidates := c.fetchCandidates(key)
	if len(candidates) == 0 {
		c.fetchMisses.Add(1)
		return nil, "", service.ErrNoRemoteGraph
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		g     *sfg.Graph
		peer  *peer
		err   error
		hedge bool
	}
	results := make(chan outcome, len(candidates))
	launch := func(p *peer, hedge bool) {
		g, err := c.client.fetchGraph(fctx, p.name, key)
		results <- outcome{g: g, peer: p, err: err, hedge: hedge}
	}
	go launch(candidates[0], false)
	launched := 1
	var hedgeTimer <-chan time.Time
	if len(candidates) > 1 {
		t := time.NewTimer(c.cfg.HedgeDelay)
		defer t.Stop()
		hedgeTimer = t.C
	}
	misses := 0
	var lastErr error
	for done := 0; done < launched; {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			c.hedged.Add(1)
			go launch(candidates[1], true)
			launched++
		case out := <-results:
			done++
			if out.err == nil {
				c.noteSuccess(out.peer, false)
				c.fetchHits.Add(1)
				if out.hedge {
					c.hedgeWins.Add(1)
				}
				return out.g, out.peer.name, nil
			}
			if errors.Is(out.err, errNotHeld) {
				// The peer answered; it just lacks the graph. Not
				// failure evidence.
				misses++
			} else if fctx.Err() == nil {
				c.noteFailure(out.peer, out.err, false)
				lastErr = out.err
			}
			// The primary failed fast: hedge immediately rather than
			// waiting out the delay.
			if hedgeTimer != nil && done == launched {
				hedgeTimer = nil
				go launch(candidates[1], true)
				launched++
			}
		case <-ctx.Done():
			c.fetchErrors.Add(1)
			return nil, "", ctx.Err()
		}
	}
	if lastErr == nil {
		c.fetchMisses.Add(1)
		return nil, "", service.ErrNoRemoteGraph
	}
	c.fetchErrors.Add(1)
	return nil, "", fmt.Errorf("cluster: fetching %s: %w", profileKeyString(key), lastErr)
}

// OfferGraph implements service.Cluster: replicate a freshly profiled
// graph to the key's other owners, asynchronously. The envelope is
// encoded once, synchronously (the graph is frozen but cheap to read;
// encoding up front means the goroutine never touches it), and failures
// only cost a future re-profile somewhere.
func (c *Coordinator) OfferGraph(ctx context.Context, key service.ProfileKey, g *sfg.Graph) {
	var targets []*peer
	for _, name := range c.ring.Owners(profileKeyString(key), c.cfg.Replication) {
		if name == c.cfg.Self {
			continue
		}
		if p := c.peers.byName(name); p != nil && p.isHealthy() {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return
	}
	envelope, err := service.EncodeProfileEnvelope(key, g)
	if err != nil {
		c.offerFailures.Add(1)
		c.log.Warn("encoding offer envelope", "err", err.Error())
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for _, p := range targets {
			if err := c.client.offerGraph(c.stopCtx, p.name, envelope); err != nil {
				c.offerFailures.Add(1)
				c.log.Debug("graph offer failed", "peer", p.name, "err", err.Error())
				continue
			}
			c.offersSent.Add(1)
		}
	}()
}

// partitionIndices deals the sorted pending indices round-robin across
// the sorted executor names. The rule is pure and deterministic: every
// node given the same (pending, executors) computes the same
// partition, which makes failover reasoning — and the chaos suite's
// byte-identity check — tractable. parts preserves executor order.
func partitionIndices(pending []int, executors []string) [][]int {
	parts := make([][]int, len(executors))
	for k, idx := range pending {
		e := k % len(executors)
		parts[e] = append(parts[e], idx)
	}
	return parts
}

// SweepPending implements service.Cluster. Each round partitions the
// remaining indices round-robin over the sorted healthy executors
// (self plus admitted remote peers); remote partitions dispatch in
// ChunkSize sub-sweeps so a dying peer forfeits at most one in-flight
// chunk. A failed peer is marked (ejecting it at threshold), its
// unfinished indices return to the pool, and the next round
// re-partitions over the survivors — self is always an executor, so
// the sweep completes even with every remote peer dead. Only context
// cancellation or a local compute failure is fatal.
func (c *Coordinator) SweepPending(ctx context.Context, job service.ClusterSweepJob) error {
	remaining := append([]int(nil), job.Pending...)
	sort.Ints(remaining)
	round := 0
	for len(remaining) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		round++
		executors := append([]string{c.cfg.Self}, c.peers.healthyNames()...)
		sort.Strings(executors)
		parts := partitionIndices(remaining, executors)
		rctx, roundSpan := obs.TracerFromContext(ctx).StartSpan(ctx, "cluster.round")
		roundSpan.Annotate("round", fmt.Sprintf("%d", round))
		roundSpan.Annotate("executors", fmt.Sprintf("%d", len(executors)))
		roundSpan.Annotate("points", fmt.Sprintf("%d", len(remaining)))

		type redo struct {
			peer    string
			indices []int
		}
		var (
			mu       sync.Mutex
			requeue  []redo
			fatalErr error
		)
		var wg sync.WaitGroup
		for e, name := range executors {
			part := parts[e]
			if len(part) == 0 {
				continue
			}
			wg.Add(1)
			if name == c.cfg.Self {
				go func(indices []int) {
					defer wg.Done()
					c.localPoints.Add(uint64(len(indices)))
					if err := job.Local(rctx, indices); err != nil {
						mu.Lock()
						if fatalErr == nil {
							fatalErr = err
						}
						mu.Unlock()
					}
				}(part)
				continue
			}
			go func(name string, indices []int) {
				defer wg.Done()
				failed := c.sweepOnPeer(rctx, name, job, indices)
				if len(failed) > 0 {
					mu.Lock()
					requeue = append(requeue, redo{peer: name, indices: failed})
					mu.Unlock()
				}
			}(name, part)
		}
		wg.Wait()
		roundSpan.End()
		if fatalErr != nil {
			return fatalErr
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		remaining = remaining[:0]
		for _, r := range requeue {
			c.failovers.Add(1)
			c.repartitioned.Add(uint64(len(r.indices)))
			c.cfg.Flight.Record(obs.RequestEvent{
				Time: time.Now(), Endpoint: "cluster.failover", Peer: r.peer,
				Failovers: 1, Error: fmt.Sprintf("re-partitioned %d points over survivors", len(r.indices)),
			})
			if job.Failover != nil {
				job.Failover(r.peer, len(r.indices))
			}
			remaining = append(remaining, r.indices...)
		}
		sort.Ints(remaining)
	}
	return nil
}

// sweepOnPeer dispatches one executor's indices to a peer in ChunkSize
// sub-sweeps, reporting each completed chunk as one batch. It returns
// the indices that did not complete; the peer's health is marked per
// RPC outcome, and after a failure the rest of the partition is
// forfeited immediately (the caller re-partitions it) instead of being
// thrown at a peer that just proved unreliable.
//
// Each chunk gets a cluster.dispatch span whose ID rides the
// sub-request's X-Statsimd-Parent-Span header; the peer parents its
// sub-sweep spans under it and ships them back in the response, where
// Import grafts them into the coordinator's tracer. The peer's cost
// entries are remapped from chunk-local to grid indices; a peer too
// old to ledger its points gets synthesized entries (the chunk wall
// time split evenly) so the coordinator's ledger still accounts for
// every point.
func (c *Coordinator) sweepOnPeer(ctx context.Context, name string, job service.ClusterSweepJob, indices []int) (failed []int) {
	p := c.peers.byName(name)
	tracer := obs.TracerFromContext(ctx)
	for start := 0; start < len(indices); start += c.cfg.ChunkSize {
		end := start + c.cfg.ChunkSize
		if end > len(indices) {
			end = len(indices)
		}
		chunk := indices[start:end]
		if err := ctx.Err(); err != nil {
			return append(failed, indices[start:]...)
		}
		req := service.SweepRequest{
			Profile: job.Profile,
			Config:  job.Config,
			Points:  make([]service.SweepPoint, len(chunk)),
			Target:  job.Target,
			SimSeed: job.SimSeed,
		}
		for k, idx := range chunk {
			req.Points[k] = job.Points[idx]
		}
		dctx, dispatch := tracer.StartSpan(ctx, "cluster.dispatch")
		dispatch.Annotate("peer", name)
		dispatch.Annotate("points", fmt.Sprintf("%d", len(chunk)))
		chunkStart := time.Now()
		resp, err := c.client.sweepOn(dctx, name, req)
		if err != nil {
			dispatch.Annotate("error", err.Error())
			dispatch.End()
			if ctx.Err() == nil {
				c.noteFailure(p, err, false)
			}
			return append(failed, indices[start:]...)
		}
		dispatch.End()
		chunkWall := time.Since(chunkStart).Seconds()
		c.noteSuccess(p, false)
		tracer.Import(resp.TraceSpans)
		ms := make([]core.Metrics, len(chunk))
		for k := range chunk {
			ms[k] = *resp.Results[k].Raw
		}
		job.Report(chunk, ms)
		if job.ReportCost != nil {
			if len(resp.Cost) == len(chunk) {
				for k, idx := range chunk {
					e := resp.Cost[k]
					if e.Node == "" {
						e.Node = name
					}
					job.ReportCost(idx, e)
				}
			} else {
				wall := chunkWall / float64(len(chunk))
				for _, idx := range chunk {
					job.ReportCost(idx, service.PointCost{
						Tier: service.TierSimulated, Node: name, Cohort: -1, WallS: wall,
					})
				}
			}
		}
		c.remotePoints.Add(uint64(len(chunk)))
	}
	return failed
}

// PeerMetrics implements service.Cluster: scrape one peer's Prometheus
// exposition for the merged fleet view.
func (c *Coordinator) PeerMetrics(ctx context.Context, peer string) ([]byte, error) {
	return c.client.fetchMetrics(ctx, peer)
}

// Status implements service.Cluster.
func (c *Coordinator) Status() service.ClusterStatus {
	return service.ClusterStatus{
		Self:        c.cfg.Self,
		Replication: c.cfg.Replication,
		Peers:       c.peers.statuses(),
	}
}

// Stats implements service.Cluster.
func (c *Coordinator) Stats() service.ClusterStats {
	healthy := len(c.peers.healthyNames())
	return service.ClusterStats{
		PeersTotal:          len(c.peers.peers),
		PeersHealthy:        healthy,
		Probes:              c.probes.Load(),
		Ejections:           c.ejects.Load(),
		Readmissions:        c.readmits.Load(),
		GraphFetchHits:      c.fetchHits.Load(),
		GraphFetchMisses:    c.fetchMisses.Load(),
		GraphFetchErrors:    c.fetchErrors.Load(),
		HedgedFetches:       c.hedged.Load(),
		HedgeWins:           c.hedgeWins.Load(),
		OffersSent:          c.offersSent.Load(),
		OfferFailures:       c.offerFailures.Load(),
		RemotePoints:        c.remotePoints.Load(),
		LocalPoints:         c.localPoints.Load(),
		Failovers:           c.failovers.Load(),
		RepartitionedPoints: c.repartitioned.Load(),
		RPCRetries:          c.rpcRetries.Load(),
	}
}
