package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/lockstep"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ladderLayers are the layers the replay times, named after the modules
// they call; "op" is the replay's own glue between calls.
var ladderLayers = []string{"program", "sfg", "store", "synth", "cpu", "lockstep", "resultstore", "surrogate", "journal", "wire", "op"}

// shareLayers are the layers whose share BENCHMARK.json declares.
var shareLayers = []string{"program", "sfg", "store", "synth", "cpu", "lockstep", "resultstore", "journal", "wire"}

// ladderMetrics derives the per-layer metrics from the replay's spans. A
// layer the replay never called reads 0: the workload does not exercise
// it. unattributed is 1 - replay wall / untraced wall: the part of the
// HTTP run spent in the transport, the handlers, the pool and the
// daemon's telemetry.
func ladderMetrics(rp *replayer, replayWall, untracedWall time.Duration, cr checkResult) map[string]metric {
	main := summarize(rp.rec.recorded())
	perWork := func(name string) float64 {
		cs := main.byName[name]
		return float64(cs.ns) / float64(max(cs.work, 1))
	}
	meanMS := func(name string) float64 {
		cs := main.byName[name]
		return float64(cs.ns) / float64(max(cs.count, 1)) / 1e6
	}
	encode, decode := main.byName["wire.encode"], main.byName["wire.decode"]
	ops := float64(max(main.byName["op"].count, 1))

	m := map[string]metric{
		"program.ns_per_inst":        {perWork("program"), "ns"},
		"sfg.ns_per_inst":            {perWork("sfg"), "ns"},
		"synth.reduce_ms":            {meanMS("synth.reduce"), "ms"},
		"synth.ns_per_inst":          {perWork("synth.gen"), "ns"},
		"cpu.ns_per_inst":            {perWork("cpu"), "ns"},
		"cpu.ns_per_cycle":           {float64(main.byName["cpu"].ns) / float64(max(rp.cycles.Load(), 1)), "ns"},
		"cpu.cycles":                 {float64(cr.cycles), "count"},
		"cpu.insts":                  {float64(cr.insts), "count"},
		"lockstep.ns_per_point_inst": {perWork("lockstep"), "ns"},
		"lockstep.cohort_fill": {float64(rp.groupPoints.Load()) / float64(max(rp.groups.Load(), 1)) /
			lockstep.DefaultMaxGroup, "ratio"},
		"resultstore.put_us":        {meanMS("resultstore.put") * 1e3, "us"},
		"resultstore.get_us":        {meanMS("resultstore.get") * 1e3, "us"},
		"journal.append_us":         {meanMS("journal.append") * 1e3, "us"},
		"journal.open_ms":           {meanMS("journal.open"), "ms"},
		"store.save_ms":             {meanMS("store.save"), "ms"},
		"wire.encode_ms":            {float64(encode.ns) / ops / 1e6, "ms"},
		"wire.decode_ms":            {float64(decode.ns) / ops / 1e6, "ms"},
		"wire.bytes_per_req":        {float64(encode.work) / ops, "bytes"},
		"ladder.unattributed_share": {1 - replayWall.Seconds()/untracedWall.Seconds(), "ratio"},
	}
	for _, l := range shareLayers {
		m[l+".share"] = metric{float64(main.busyNS[l]) / float64(max(main.total, 1)), "ratio"}
	}
	return m
}

// printLadder writes the busy time and share of every layer, the
// replay's coverage, and the graph sizes the unit costs depend on.
func printLadder(w io.Writer, rp *replayer, replayWall time.Duration) {
	sm := summarize(rp.rec.recorded())
	fmt.Fprintf(w, "# ladder: replay wall %.3f s, %d spans (%d dropped)\n", replayWall.Seconds(), len(rp.rec.recorded()), rp.rec.dropped.Load())
	for _, l := range ladderLayers {
		fmt.Fprintf(w, "# %s.busy_s %.4f  %s.share %.4f\n", l, float64(sm.busyNS[l])/1e9, l, float64(sm.busyNS[l])/float64(max(sm.total, 1)))
	}
	var nodes []string
	for key, g := range rp.graphs.byKey {
		nodes = append(nodes, fmt.Sprintf("%s=%d", key.Workload, g.NumNodes()))
	}
	sort.Strings(nodes)
	if n := rp.profiled.Load(); n > 0 {
		nodes = append(nodes, fmt.Sprintf("mean of %d profiled=%.0f", n, float64(rp.profiledNodes.Load())/float64(n)))
	}
	fmt.Fprintf(w, "# sfg.nodes %v\n", nodes)
}
