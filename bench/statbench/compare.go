package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// minPairs is the fewest parent/change pairs the paired rule accepts.
const minPairs = 10

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// judgement is the paired rule's outcome for one (metric, workload).
type judgement struct {
	parent, change [3]float64 // first quartile, median, third quartile
	wins, pairs    int
	verdict        string // better, unchanged, worse or unresolved
}

// judge applies the paired rule to the i-th parent and i-th change run:
//   - worse: the change's median is worse than the parent's by more than
//     the bound (a share of the parent's median);
//   - better: the change wins at least 9 of 10 pairs and the medians
//     differ by more than the parent's interquartile range;
//   - unresolved: fewer than minPairs pairs, or the parent's spread is
//     wider than the bound and not every change run beats every parent
//     run;
//   - unchanged otherwise.
func judge(parent, change []float64, lowerBetter bool, bnd float64) judgement {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	j := judgement{pairs: n}
	if n == 0 {
		j.verdict = "unresolved"
		return j
	}
	quartiles := func(xs []float64) [3]float64 {
		return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
	}
	j.parent, j.change = quartiles(parent), quartiles(change)
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	pm, cm := j.parent[1], j.change[1]
	worsening := (cm - pm) / math.Abs(pm)
	if !lowerBetter {
		worsening = -worsening
	}
	iqr := j.parent[2] - j.parent[0]
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case n < minPairs:
		j.verdict = "unresolved"
	case worsening > bnd:
		j.verdict = "worse"
	case 10*j.wins >= 9*n && math.Abs(cm-pm) > iqr && better(cm, pm):
		j.verdict = "better"
	case iqr/math.Abs(pm) > bnd && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// loadReports reads every untraced -out report in dir, in file-name
// order, grouped by workload.
func loadReports(dir string) (map[string][]report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make(map[string][]report)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// compareDirs judges every (end-to-end metric, workload) pair of two
// result directories. The runs pair up by file-name order, so name them
// in the order they ran, alternating which side ran first. It exits
// non-zero on any regression and on any incorrect change run.
func compareDirs(benchPath, parentDir, changeDir string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "statbench:", err)
		return 2
	}
	var def struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(stderr, "statbench: %s: %v\n", benchPath, err)
		return 2
	}
	parents, err := loadReports(parentDir)
	if err == nil {
		var changes map[string][]report
		if changes, err = loadReports(changeDir); err == nil {
			return printComparison(def.EndToEnd, parents, changes, stdout)
		}
	}
	fmt.Fprintln(stderr, "statbench:", err)
	return 2
}

func printComparison(bounds []bound, parents, changes map[string][]report, stdout io.Writer) int {
	var names []string
	for w := range parents {
		names = append(names, w)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent q1 / median / q3\tchange q1 / median / q3\twins\tdelta\tbound\tverdict")
	code := 0
	for _, w := range names {
		ch := changes[w]
		for _, r := range ch {
			if !r.Correct {
				fmt.Fprintf(tw, "%s\t(correctness)\t\t\t\t\t\tchange run seed %d failed %d of %d\n", w, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
		for _, b := range bounds {
			var p, c []float64
			for _, r := range parents[w] {
				p = append(p, r.Metrics[b.Name].Value)
			}
			for _, r := range ch {
				c = append(c, r.Metrics[b.Name].Value)
			}
			j := judge(p, c, b.Better == "lower", b.Bound)
			if j.verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g / %.4g / %.4g\t%.4g / %.4g / %.4g\t%d/%d\t%+.1f%%\t%.0f%%\t%s\n",
				w, b.Name, j.parent[0], j.parent[1], j.parent[2], j.change[0], j.change[1], j.change[2],
				j.wins, j.pairs, 100*(j.change[1]-j.parent[1])/math.Abs(j.parent[1]), 100*b.Bound, j.verdict)
		}
	}
	tw.Flush()
	return code
}
