// Command statbench benchmarks statsimd end to end. It starts an
// in-process statsimd server on loopback, drives one workload's
// closed-loop traffic for a fixed time from the same process, checks
// the answers, and prints the end-to-end metrics. With --trace 1 it then
// replays the same request sequence layer by layer and prints the
// per-layer metrics instead. With -compare it applies the paired
// comparison rule to two directories of saved results.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload simulate-mix --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -compare parent/ change/
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one benchmark run as the flags describe it.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // with trace, where to write the replay's spans
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what -out saves and -compare reads: the result plus what
// identifies the run.
type report struct {
	result
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	// Digest is result_digest over the first DigestOps ops.
	Digest    string `json:"result_digest"`
	DigestOps int    `json:"digest_ops"`
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("statbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep-cold, sweep-hit, simulate-mix or pipeline-cold")
	seed := fs.Uint64("seed", 1, "seed the request sequence is generated from")
	seconds := fs.Float64("seconds", 10, "how long the closed loop sends requests")
	trace := fs.Int("trace", 0, "1: after the timed run, replay it layer by layer and report the per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, also write the replay's spans to this JSON file")
	out := fs.String("out", "", "also write the result, with workload, seed and result_digest, to this JSON file")
	compare := fs.Bool("compare", false, "compare saved results with the bounds in BENCHMARK.json: -compare <parentDir> <changeDir>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "statbench: -compare takes <parentDir> <changeDir>")
			return 2
		}
		return compareDirs("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "statbench: --trace takes 0 or 1")
		return 2
	}
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	rep, err := runBench(context.Background(), opts, paperScale(), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "statbench:", err)
		return 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "statbench: writing -out:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "statbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runBench sets up, drives and checks one workload, prints every
// metric as "name value unit" with diagnostics as "#" lines, and
// returns the report. The caller prints the final JSON line.
func runBench(ctx context.Context, opts options, sc scale, stdout io.Writer) (*report, error) {
	wl, err := lookupWorkload(opts.workload)
	if err != nil {
		return nil, err
	}
	if opts.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	seq, err := newSequence(wl, opts.seed, sc)
	if err != nil {
		return nil, err
	}
	// The host is timed once before the first set-up and once after the
	// server is gone, so no work of the program under test runs beside it.
	calibBefore := calibrate(sc.CalibReps)

	// Set up several times and keep the last: setup_s is the median, so
	// one slow set-up does not read as a regression. A cheap set-up
	// repeats until sc.SetupSeconds have been spent, so its median is
	// stable too: pipeline-cold's takes about 8 ms, and some take half as
	// long again. Each set-up starts from a collected heap, so each meets
	// the same garbage collector pacing, and the peak RSS is one server's.
	var (
		e      *env
		setups []float64
		spent  float64
	)
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	for rep := 0; rep < sc.SetupReps || spent < sc.SetupSeconds; rep++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		if e, err = setUp(ctx, seq); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[rep]
	}

	var replayDir string
	if opts.trace {
		if replayDir, err = os.MkdirTemp("", "statbench-replay-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(replayDir)
		if err := copyTree(e.dir, replayDir); err != nil {
			return nil, fmt.Errorf("snapshotting set-up state: %w", err)
		}
	}

	before, err := metricsSnapshot(ctx, e)
	if err != nil {
		return nil, err
	}
	res := drive(ctx, e, seq, time.Duration(opts.seconds*float64(time.Second)))
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	after, err := metricsSnapshot(ctx, e)
	if err != nil {
		return nil, err
	}

	var (
		lat    []float64
		points int
	)
	for i, o := range res.ops {
		if res.errs[i] == nil {
			lat = append(lat, float64(res.lat[i])/float64(time.Millisecond))
			points += o.points()
		}
	}
	if len(res.ops) == 0 {
		return nil, errors.New("no request was sent before the deadline")
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request succeeded in %d attempts; first error: %v", len(res.ops), res.errs[0])
	}
	sum, covered := digest(res, wl.digestOps)
	refs := samplePoints(res, wl.digestOps, sc.Samples, opts.seed)
	cr, err := checkSample(res, refs, e.dir)
	if err != nil {
		return nil, fmt.Errorf("recomputing the sample: %w", err)
	}
	ipcErr, err := ipcError(sc)
	if err != nil {
		return nil, fmt.Errorf("accuracy set: %w", err)
	}
	e.close()
	e = nil
	calibAfter := calibrate(sc.CalibReps)
	// slow > 1 when the host ran slower than the reference host.
	slow := (calibBefore + calibAfter) / 2 / calibRefMS

	// A failed request and a wrong answer both fail their op.
	failedOps := make(map[int]bool)
	for i, err := range res.errs {
		if err != nil {
			failedOps[i] = true
			fmt.Fprintf(stdout, "# failed op %d: %v\n", i, err)
		}
	}
	for _, w := range cr.wrong {
		failedOps[w.ref.op] = true
		fmt.Fprintf(stdout, "# wrong answer: %s\n", w.msg)
	}

	rep := &report{Workload: wl.name, Seed: opts.seed, Trace: opts.trace, Digest: sum, DigestOps: covered}
	rep.Attempted = len(res.ops)
	// The timings are declared at the reference host's speed: neighbours
	// on a shared host slow the benchmark by up to a third for minutes at
	// a time, and the calibration job slows with it.
	pps, p50, setup := float64(points)/res.wall.Seconds(), quantile(lat, 0.5), median(setups)
	e2e := map[string]metric{
		"points_per_s": {pps * slow, "points/s"},
		"p50_ms":       {p50 / slow, "ms"},
		"ipc_err_pct":  {ipcErr, "%"},
		"peak_rss_mb":  {rss, "MiB"},
		"setup_s":      {setup / slow, "s"},
	}
	printMetrics(stdout, e2e)
	fmt.Fprintf(stdout, "# host: calibration job %.1f ms before, %.1f ms after, reference %d ms; as measured: points_per_s %g p50_ms %g setup_s %g\n",
		calibBefore, calibAfter, calibRefMS, pps, p50, setup)
	// The tail is printed, not declared: on a shared 2-core machine its
	// run-to-run spread exceeds the widest bound the benchmark may set.
	if q, ok := tailQuantile(len(lat)); ok {
		fmt.Fprintf(stdout, "# tail_ms %.3f ms as measured: p%.4g of %d ops, the highest with >=10 samples beyond it\n", quantile(lat, q), 100*q, len(lat))
	} else {
		fmt.Fprintf(stdout, "# tail_ms: %d ops leave no percentile with >=10 samples beyond it\n", len(lat))
	}
	fmt.Fprintf(stdout, "# %d set-ups, %.4f to %.4f s as measured; timed window %.3f s, %d points answered\n",
		len(setups), quantile(setups, 0), quantile(setups, 1), res.wall.Seconds(), points)
	fmt.Fprintf(stdout, "result_digest %s (first %d ops)\n", sum, covered)
	fmt.Fprintf(stdout, "# check: %d sampled points recomputed in process, %d wrong; cpu.cycles %d cpu.insts %d\n",
		cr.checked, len(cr.wrong), cr.cycles, cr.insts)
	printCounts(stdout, before, after)
	rep.Metrics = e2e

	if opts.trace {
		lm, err := traceLadder(res, wl, replayDir, opts.spans, cr, stdout)
		if err != nil {
			return nil, err
		}
		printMetrics(stdout, lm)
		rep.Metrics = lm
	}
	rep.Failed = len(failedOps)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// traceLadder replays the run from the set-up snapshot and returns the
// per-layer metrics.
func traceLadder(res *runResult, wl workload, replayDir, spansPath string, cr checkResult, stdout io.Writer) (map[string]metric, error) {
	rp, err := newReplayer(replayDir, spanBudget(res.ops))
	if err != nil {
		return nil, err
	}
	defer rp.close()
	wall, err := rp.replay(res, wl.clients)
	if err != nil {
		return nil, err
	}
	printLadder(stdout, rp, wall)
	if spansPath != "" {
		if err := writeSpans(spansPath, rp.rec.recorded()); err != nil {
			return nil, err
		}
	}
	return ladderMetrics(rp, wall, res.wall, cr), nil
}

// setUp starts a fresh server and warms it the way the workload's
// callers find it: graphs profiled, sweep-hit's result store filled.
func setUp(ctx context.Context, seq *sequence) (*env, error) {
	e, err := startEnv(seq.wl.cacheSize)
	if err != nil {
		return nil, err
	}
	var warm []string
	switch seq.wl.name {
	case "sweep-cold":
		warm = sweepColdWorkloads
	case "simulate-mix":
		warm = seq.programs
	}
	err = parallel(len(warm), 2, func(i int) error {
		var pr service.ProfileResponse
		return e.call(ctx, "/v1/profile", service.ProfileRequest{ProfileSpec: seq.warmSpec(warm[i])}, &pr)
	})
	if err == nil {
		switch seq.wl.name {
		case "sweep-hit":
			var sw service.SweepResponse
			err = e.call(ctx, "/v1/sweep", seq.setupSweep(), &sw)
		case "pipeline-cold":
			var ws []service.WorkloadInfo
			err = e.call(ctx, "/v1/workloads", nil, &ws)
		}
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return e, nil
}

func metricsSnapshot(ctx context.Context, e *env) (service.MetricsSnapshot, error) {
	var s service.MetricsSnapshot
	err := e.call(ctx, "/metrics", nil, &s)
	return s, err
}

// printCounts prints the server's own counters over the timed window,
// taken as the difference of GET /metrics before and after.
func printCounts(w io.Writer, before, after service.MetricsSnapshot) {
	hits := after.Cache.Hits + after.Cache.Coalesced - before.Cache.Hits - before.Cache.Coalesced
	misses := after.Cache.Misses - before.Cache.Misses
	fmt.Fprintf(w, "# cache.hit_ratio %.4f (%d hits, %d misses)\n", float64(hits)/float64(max(hits+misses, 1)), hits, misses)
	b, a := before.Robustness, after.Robustness
	store, resumed := a.SweepPointsFromStore-b.SweepPointsFromStore, a.SweepPointsResumed-b.SweepPointsResumed
	simulated := a.SweepPointsSimulated - b.SweepPointsSimulated
	total := float64(max(store+resumed+simulated+a.SweepPointsFromSurrogate-b.SweepPointsFromSurrogate, 1))
	fmt.Fprintf(w, "# sweep.store_share %.4f sweep.resumed_share %.4f sweep.simulated_share %.4f\n",
		float64(store)/total, float64(resumed)/total, float64(simulated)/total)
	fmt.Fprintf(w, "# service.shed %d service.retries %d pool.failed %d\n",
		a.Shed-b.Shed, a.Retries-b.Retries, after.Pool.Failed-before.Pool.Failed)
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %s\n", name, strconv.FormatFloat(ms[name].Value, 'g', -1, 64), ms[name].Unit)
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM in /proc/self/status")
}
