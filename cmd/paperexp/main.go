// Command paperexp regenerates the tables and figures of the paper's
// evaluation (§4). Each experiment prints the same rows/series the
// paper reports, produced by this framework's workloads and simulators.
//
// Usage:
//
//	paperexp -exp all                 # everything at paper scale
//	paperexp -exp fig6,table4        # a subset
//	paperexp -exp fig6 -quick        # smoke scale
//	paperexp -exp dse -grid quick    # reduced design-space grid
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment list or 'all': "+strings.Join(experiments.Names(), ","))
	quick := flag.Bool("quick", false, "use the reduced smoke-test scale")
	ref := flag.Uint64("ref", 0, "override reference stream length (instructions)")
	synthT := flag.Uint64("synth", 0, "override synthetic trace target length")
	seeds := flag.Int("seeds", 0, "override seed count")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark subset")
	units := flag.Int("fig8units", 10, "number of reference-stream units in fig8")
	grid := flag.String("grid", "paper", "design-space grid for dse: paper (1792 points) or quick")
	out := flag.String("o", "", "also write results to this file")
	jsonOut := flag.String("json", "", "write raw results as JSON to this file")
	manifestDir := flag.String("manifest-dir", "",
		"write a <exp>.manifest.json provenance record (scale, fingerprint, timing) per experiment into this directory")
	flag.Parse()

	scale := experiments.PaperScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	if *ref != 0 {
		scale.RefInstructions = *ref
	}
	if *synthT != 0 {
		scale.SynthTarget = *synthT
	}
	if *seeds != 0 {
		scale.Seeds = *seeds
	}
	if *benchmarks != "" {
		scale.Benchmarks = strings.Split(*benchmarks, ",")
	}

	var names []string
	if *exp == "all" {
		names = experiments.Names()
	} else {
		names = strings.Split(*exp, ",")
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(w, "paperexp: ref=%d synth=%d seeds=%d benchmarks=%v\n",
		scale.RefInstructions, scale.SynthTarget, scale.Seeds, scale.Benchmarks)
	raw := map[string]experiments.Result{}
	for _, name := range names {
		start := time.Now()
		var res experiments.Result
		var err error
		switch name { // experiments with extra shape parameters
		case "fig8":
			res, err = experiments.Fig8(scale, *units)
		case "dse":
			g := service.PaperGrid()
			if *grid == "quick" {
				g = service.QuickGrid()
			}
			res, err = experiments.DSE(scale, g)
		default:
			res, err = experiments.Run(name, scale)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		raw[name] = res
		fmt.Fprintf(w, "\n===== %s (%.1fs) =====\n%s", name, time.Since(start).Seconds(), res.Render())
		if *manifestDir != "" {
			man := experiments.NewManifest(name, scale, time.Since(start))
			path := filepath.Join(*manifestDir, name+".manifest.json")
			if err := man.WriteFile(path); err != nil {
				fatal(fmt.Errorf("%s: writing manifest: %w", name, err))
			}
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(raw, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperexp:", err)
	os.Exit(1)
}
