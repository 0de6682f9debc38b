package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) of the metrics registry,
// served by GET /metrics?format=prometheus so standard scrape tooling
// can consume the daemon without a sidecar. The JSON view remains the
// default; this renderer derives the same numbers from the same
// histograms, with the log2-microsecond latency buckets rendered as
// cumulative `_bucket` series in seconds.

// promEscapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func promEscapeLabel(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// promEscapeHelp escapes a HELP string: backslash and newline only.
func promEscapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promWriter accumulates exposition lines and remembers which families
// already emitted their # HELP/# TYPE preamble.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) family(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, promEscapeHelp(help), name, typ)
}

// sample emits one series line; labels alternate key, value and values
// are escaped here.
func (p *promWriter) sample(name string, value string, labels ...string) {
	if len(labels) == 0 {
		p.printf("%s %s\n", name, value)
		return
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, labels[i], promEscapeLabel(labels[i+1]))
	}
	p.printf("%s{%s} %s\n", name, b.String(), value)
}

// sampleFloat emits one float-valued series line, suppressing NaN and
// ±Inf: a division by a zero count must not poison the scrape (many
// collectors reject the whole exposition on an unparsable or non-finite
// sample where they expected a finite gauge).
func (p *promWriter) sampleFloat(name string, value float64, labels ...string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	p.sample(name, promFloat(value), labels...)
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func promUint(v uint64) string   { return strconv.FormatUint(v, 10) }

// promHistogram renders one LatencyHist as a cumulative histogram in
// seconds under the given family name with one fixed label. Buckets are
// emitted up to the highest non-empty one (the +Inf bucket always
// carries the total), keeping the output compact while staying a valid
// cumulative series.
func (p *promWriter) promHistogram(name, labelKey, labelVal string, e latencyExport) {
	var cum uint64
	top := 0
	for b := 1; b <= latencyBuckets; b++ {
		if e.counts[b] > 0 {
			top = b
		}
	}
	for b := 1; b <= top; b++ {
		cum += e.counts[b]
		le := promFloat(float64(bucketUpperUS(b)) / 1e6)
		p.sample(name+"_bucket", promUint(cum), labelKey, labelVal, "le", le)
	}
	p.sample(name+"_bucket", promUint(e.total), labelKey, labelVal, "le", "+Inf")
	p.sample(name+"_sum", promFloat(float64(e.sumUS)/1e6), labelKey, labelVal)
	p.sample(name+"_count", promUint(e.total), labelKey, labelVal)
}

// sortedFamilies returns the families' names in stable order so scrapes
// are diffable.
func sortedFamilies(m map[string]*LatencyHist) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// promSnapshot bundles the non-histogram state the exposition renders
// alongside the registry.
type promSnapshot struct {
	uptimeSeconds float64
	build         BuildInfo
	cache         CacheStats
	pool          PoolStats
	robustness    RobustnessStats
	store         *StoreStats
	flightEvents  uint64
	fidelity      FidelityStats
	oracle        *OracleStatus
	cluster       *ClusterMetrics
	costs         []costSample
}

// writePrometheus renders the complete exposition. Every family carries
// # HELP and # TYPE lines; series within a family are sorted.
func writePrometheus(w io.Writer, m *Metrics, st promSnapshot) error {
	p := &promWriter{w: w}

	p.family("statsimd_uptime_seconds", "Seconds since the daemon's metrics registry was created.", "gauge")
	p.sample("statsimd_uptime_seconds", promFloat(st.uptimeSeconds))

	p.family("statsimd_build_info", "Build provenance; the value is always 1.", "gauge")
	p.sample("statsimd_build_info", "1",
		"version", st.build.Version,
		"go_version", st.build.GoVersion,
		"revision", st.build.Revision,
		"dirty", strconv.FormatBool(st.build.Dirty))

	endpoints := m.eachEndpoint()
	names := sortedFamilies(endpoints)
	exports := make(map[string]latencyExport, len(names))
	for _, name := range names {
		exports[name] = endpoints[name].export()
	}
	p.family("statsimd_requests_total", "Requests served, by endpoint.", "counter")
	for _, name := range names {
		p.sample("statsimd_requests_total", promUint(exports[name].total), "endpoint", name)
	}
	p.family("statsimd_request_errors_total", "Requests that returned an error, by endpoint.", "counter")
	for _, name := range names {
		p.sample("statsimd_request_errors_total", promUint(exports[name].errs), "endpoint", name)
	}
	p.family("statsimd_request_duration_seconds",
		"Request latency, log2-microsecond buckets rendered in seconds.", "histogram")
	for _, name := range names {
		p.promHistogram("statsimd_request_duration_seconds", "endpoint", name, exports[name])
	}

	stages := m.eachStage()
	stageNames := sortedFamilies(stages)
	p.family("statsimd_stage_duration_seconds",
		"Pipeline stage time (profile/reduce/generate/simulate), log2-microsecond buckets in seconds.", "histogram")
	for _, name := range stageNames {
		p.promHistogram("statsimd_stage_duration_seconds", "stage", name, stages[name].export())
	}

	p.family("statsimd_cache_lookups_total", "SFG cache lookups by outcome (hit, miss, coalesced).", "counter")
	p.sample("statsimd_cache_lookups_total", promUint(st.cache.Hits), "outcome", "hit")
	p.sample("statsimd_cache_lookups_total", promUint(st.cache.Misses), "outcome", "miss")
	p.sample("statsimd_cache_lookups_total", promUint(st.cache.Coalesced), "outcome", "coalesced")
	p.family("statsimd_cache_evictions_total", "SFG cache LRU evictions.", "counter")
	p.sample("statsimd_cache_evictions_total", promUint(st.cache.Evictions))
	p.family("statsimd_cache_resident", "Statistical profiles currently resident.", "gauge")
	p.sample("statsimd_cache_resident", strconv.Itoa(st.cache.Size))
	p.family("statsimd_cache_capacity", "Configured SFG cache capacity.", "gauge")
	p.sample("statsimd_cache_capacity", strconv.Itoa(st.cache.Capacity))

	p.family("statsimd_pool_workers", "Worker goroutines.", "gauge")
	p.sample("statsimd_pool_workers", strconv.Itoa(st.pool.Workers))
	p.family("statsimd_pool_queue_depth", "Jobs queued but not yet running.", "gauge")
	p.sample("statsimd_pool_queue_depth", strconv.Itoa(st.pool.QueueDepth))
	p.family("statsimd_pool_in_flight", "Jobs currently executing.", "gauge")
	p.sample("statsimd_pool_in_flight", strconv.Itoa(st.pool.InFlight))
	p.family("statsimd_pool_jobs_completed_total", "Jobs run to completion.", "counter")
	p.sample("statsimd_pool_jobs_completed_total", promUint(st.pool.Completed))
	p.family("statsimd_pool_jobs_failed_total", "Jobs that returned an error (including isolated panics).", "counter")
	p.sample("statsimd_pool_jobs_failed_total", promUint(st.pool.Failed))
	p.family("statsimd_pool_job_panics_total", "Jobs that panicked and were isolated.", "counter")
	p.sample("statsimd_pool_job_panics_total", promUint(st.pool.Panics))

	p.family("statsimd_shed_requests_total", "Requests shed by admission control (HTTP 429).", "counter")
	p.sample("statsimd_shed_requests_total", promUint(st.robustness.Shed))
	p.family("statsimd_job_retries_total", "Transient job failures retried.", "counter")
	p.sample("statsimd_job_retries_total", promUint(st.robustness.Retries))
	p.family("statsimd_sweep_points_resumed_total", "Sweep points served from checkpoint journals.", "counter")
	p.sample("statsimd_sweep_points_resumed_total", promUint(st.robustness.SweepPointsResumed))
	p.family("statsimd_sweep_points_total", "Sweep points by how they were answered: resumed from a checkpoint journal, served from the durable result store, predicted by the gated surrogate, or simulated.", "counter")
	p.sample("statsimd_sweep_points_total", promUint(st.robustness.SweepPointsResumed), "source", "resumed")
	p.sample("statsimd_sweep_points_total", promUint(st.robustness.SweepPointsFromStore), "source", "store")
	p.sample("statsimd_sweep_points_total", promUint(st.robustness.SweepPointsFromSurrogate), "source", "surrogate")
	p.sample("statsimd_sweep_points_total", promUint(st.robustness.SweepPointsSimulated), "source", "simulated")

	if len(st.costs) > 0 {
		p.family("statsimd_point_cost_points_total", "Cost-ledger entries by serving tier and executing node.", "counter")
		for _, c := range st.costs {
			p.sample("statsimd_point_cost_points_total", promUint(c.Points), "tier", c.Tier, "node", c.Node)
		}
		p.family("statsimd_point_cost_seconds_total", "Wall time attributed to sweep points by serving tier and executing node.", "counter")
		for _, c := range st.costs {
			p.sampleFloat("statsimd_point_cost_seconds_total", c.Seconds, "tier", c.Tier, "node", c.Node)
		}
	}

	p.family("statsimd_flight_events_total", "Request events recorded by the flight recorder.", "counter")
	p.sample("statsimd_flight_events_total", promUint(st.flightEvents))

	p.family("statsimd_fidelity_runs_total", "Adaptive-fidelity engine evaluations.", "counter")
	p.sample("statsimd_fidelity_runs_total", promUint(st.fidelity.Runs))
	p.family("statsimd_fidelity_converged_total", "Fidelity evaluations that met their CI target.", "counter")
	p.sample("statsimd_fidelity_converged_total", promUint(st.fidelity.Converged))
	p.family("statsimd_fidelity_escalations_total", "Phase strata escalated to execution-driven simulation.", "counter")
	p.sample("statsimd_fidelity_escalations_total", promUint(st.fidelity.Escalations))
	p.family("statsimd_fidelity_detailed_insts_total", "Instructions run through the execution-driven model by fidelity escalations (warm-up included).", "counter")
	p.sample("statsimd_fidelity_detailed_insts_total", promUint(st.fidelity.DetailedInsts))
	p.family("statsimd_fidelity_ci_width", "Final relative CI half-width per fidelity evaluation (sum/count expose the mean).", "summary")
	p.sampleFloat("statsimd_fidelity_ci_width_sum", st.fidelity.CIWidthSum)
	p.sample("statsimd_fidelity_ci_width_count", promUint(st.fidelity.CIWidthCount))

	if st.store != nil {
		p.family("statsimd_store_loads_total", "Durable profile loads served from disk.", "counter")
		p.sample("statsimd_store_loads_total", promUint(st.store.Loads))
		p.family("statsimd_store_misses_total", "Durable profile lookups with no usable file on disk (none, or an older store version).", "counter")
		p.sample("statsimd_store_misses_total", promUint(st.store.Misses))
		p.family("statsimd_store_saves_total", "Durable profile writes.", "counter")
		p.sample("statsimd_store_saves_total", promUint(st.store.Saves))
		p.family("statsimd_store_save_failures_total", "Durable profile writes that failed.", "counter")
		p.sample("statsimd_store_save_failures_total", promUint(st.store.SaveFailures))
		p.family("statsimd_store_quarantined_total", "Corrupt profile files quarantined.", "counter")
		p.sample("statsimd_store_quarantined_total", promUint(st.store.Quarantined))
	}

	if o := st.oracle; o != nil {
		p.family("statsimd_oracle_points_total", "Design points answered, by source (store = exact durable hit, surrogate = gated prediction, simulated = computed and fed back).", "counter")
		p.sample("statsimd_oracle_points_total", promUint(o.StoreServed), "source", "store")
		p.sample("statsimd_oracle_points_total", promUint(o.SurrogateServed), "source", "surrogate")
		p.sample("statsimd_oracle_points_total", promUint(o.Simulated), "source", "simulated")
		p.family("statsimd_oracle_gate_rejected_total", "Surrogate predictions withheld because their uncertainty exceeded the gate.", "counter")
		p.sample("statsimd_oracle_gate_rejected_total", promUint(o.GateRejected))
		p.family("statsimd_oracle_surrogate_max_ci", "Configured surrogate uncertainty gate (0 = surrogate serving disabled).", "gauge")
		p.sample("statsimd_oracle_surrogate_max_ci", promFloat(o.SurrogateMaxCI))
		p.family("statsimd_oracle_model_samples", "Training samples held by the surrogate model.", "gauge")
		p.sample("statsimd_oracle_model_samples", strconv.Itoa(o.Model.Samples))
		p.family("statsimd_oracle_model_contexts", "Distinct profile contexts the surrogate holds models for.", "gauge")
		p.sample("statsimd_oracle_model_contexts", strconv.Itoa(o.Model.Contexts))
		if rs := o.Store; rs != nil {
			p.family("statsimd_oracle_store_records", "Results persisted in the durable result log.", "gauge")
			p.sample("statsimd_oracle_store_records", strconv.Itoa(rs.Records))
			p.family("statsimd_oracle_store_lookups_total", "Result-store lookups by outcome.", "counter")
			p.sample("statsimd_oracle_store_lookups_total", promUint(rs.Hits), "outcome", "hit")
			p.sample("statsimd_oracle_store_lookups_total", promUint(rs.Misses), "outcome", "miss")
			p.family("statsimd_oracle_store_quarantined_total", "Corrupt result logs quarantined at open.", "counter")
			p.sample("statsimd_oracle_store_quarantined_total", promUint(uint64(rs.Quarantined)))
		}
	}

	if c := st.cluster; c != nil {
		p.family("statsimd_cluster_peers", "Configured peers by health state.", "gauge")
		p.sample("statsimd_cluster_peers", strconv.Itoa(c.PeersHealthy), "state", "healthy")
		p.sample("statsimd_cluster_peers", strconv.Itoa(c.PeersTotal-c.PeersHealthy), "state", "ejected")
		p.family("statsimd_cluster_probes_total", "Peer health probes performed.", "counter")
		p.sample("statsimd_cluster_probes_total", promUint(c.Probes))
		p.family("statsimd_cluster_ejections_total", "Peers ejected after consecutive probe or RPC failures.", "counter")
		p.sample("statsimd_cluster_ejections_total", promUint(c.Ejections))
		p.family("statsimd_cluster_readmissions_total", "Ejected peers re-admitted after consecutive probe successes.", "counter")
		p.sample("statsimd_cluster_readmissions_total", promUint(c.Readmissions))
		p.family("statsimd_cluster_graph_fetches_total", "Peer graph fetches by outcome (hit, miss, error).", "counter")
		p.sample("statsimd_cluster_graph_fetches_total", promUint(c.GraphFetchHits), "outcome", "hit")
		p.sample("statsimd_cluster_graph_fetches_total", promUint(c.GraphFetchMisses), "outcome", "miss")
		p.sample("statsimd_cluster_graph_fetches_total", promUint(c.GraphFetchErrors), "outcome", "error")
		p.family("statsimd_cluster_hedged_fetches_total", "Graph fetches where a hedge request was launched.", "counter")
		p.sample("statsimd_cluster_hedged_fetches_total", promUint(c.HedgedFetches))
		p.family("statsimd_cluster_hedge_wins_total", "Hedged fetches won by the hedge replica.", "counter")
		p.sample("statsimd_cluster_hedge_wins_total", promUint(c.HedgeWins))
		p.family("statsimd_cluster_offers_total", "Graph replicas offered to owner peers by outcome (sent, failed).", "counter")
		p.sample("statsimd_cluster_offers_total", promUint(c.OffersSent), "outcome", "sent")
		p.sample("statsimd_cluster_offers_total", promUint(c.OfferFailures), "outcome", "failed")
		p.family("statsimd_cluster_sweep_points_total", "Clustered sweep points by executor (remote peer, this node).", "counter")
		p.sample("statsimd_cluster_sweep_points_total", promUint(c.RemotePoints), "executor", "remote")
		p.sample("statsimd_cluster_sweep_points_total", promUint(c.LocalPoints), "executor", "local")
		p.family("statsimd_cluster_failovers_total", "Peers lost mid-sweep whose points were re-partitioned.", "counter")
		p.sample("statsimd_cluster_failovers_total", promUint(c.Failovers))
		p.family("statsimd_cluster_repartitioned_points_total", "Sweep points re-partitioned after losing a peer.", "counter")
		p.sample("statsimd_cluster_repartitioned_points_total", promUint(c.RepartitionedPoints))
		p.family("statsimd_cluster_rpc_retries_total", "Cluster RPC attempts retried after transient failures.", "counter")
		p.sample("statsimd_cluster_rpc_retries_total", promUint(c.RPCRetries))
		p.family("statsimd_cluster_graphs_served_total", "Peer fetch RPCs answered by outcome (served, missing).", "counter")
		p.sample("statsimd_cluster_graphs_served_total", promUint(c.Served.GraphsServed), "outcome", "served")
		p.sample("statsimd_cluster_graphs_served_total", promUint(c.Served.GraphsMissing), "outcome", "missing")
		p.family("statsimd_cluster_offers_received_total", "Peer offer RPCs by outcome (stored, rejected).", "counter")
		p.sample("statsimd_cluster_offers_received_total", promUint(c.Served.OffersStored), "outcome", "stored")
		p.sample("statsimd_cluster_offers_received_total", promUint(c.Served.OffersRejected), "outcome", "rejected")
	}
	return p.err
}
