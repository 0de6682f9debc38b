package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
)

// runObs carries the per-command observability outputs: -stats writes
// a JSON run manifest (config fingerprint, seeds, per-stage timings,
// final metrics), -trace writes the invocation's spans. Tracing is
// enabled only when one of the two outputs is requested — otherwise the
// pipeline runs with no tracer on the zero-overhead path.
type runObs struct {
	tool      string
	statsPath string
	tracePath string

	ctx    context.Context // carries tracer and root span once started
	tracer *obs.Tracer     // nil unless -stats or -trace was given
	root   obs.ActiveSpan  // the invocation's span, named after the tool
}

// obsFlags registers -stats and -trace on fs for the named subcommand.
func obsFlags(fs *flag.FlagSet, tool string) *runObs {
	o := &runObs{tool: tool}
	fs.StringVar(&o.statsPath, "stats", "",
		"write a JSON run manifest (config fingerprint, per-stage timings, metrics) to this file, '-' for stdout")
	fs.StringVar(&o.tracePath, "trace", "",
		"write the invocation's trace spans as JSON to this file, '-' for stdout")
	return o
}

// context returns the context the pipeline runs under. The first call
// starts the invocation's root span, on a tracer stamped with a freshly
// minted trace ID so a CLI manifest carries the same kind of identifier
// a daemon request does. Without -stats or -trace the context carries
// no tracer and every span below it is a no-op.
func (o *runObs) context() context.Context {
	if o.ctx == nil {
		o.ctx = context.Background()
		if o.statsPath != "" || o.tracePath != "" {
			o.tracer = obs.NewTracer(obs.NewTraceID(), "local")
			o.ctx, o.root = o.tracer.StartSpan(obs.WithTracer(o.ctx, o.tracer), o.tool)
		}
	}
	return o.ctx
}

// stage opens a pipeline-stage span under the root span and returns
// the context under which the stage's own spans nest.
func (o *runObs) stage(name string) (context.Context, obs.ActiveSpan) {
	return o.tracer.StartSpan(o.context(), name)
}

// writeOut writes data to path, honouring the '-' stdout convention.
func writeOut(path string, write func(*os.File) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finish ends the root span and emits the requested outputs; fill
// customises the manifest with the command's inputs and final metrics.
func (o *runObs) finish(fill func(*obs.Manifest)) error {
	if o.tracer == nil {
		return nil
	}
	o.root.End()
	if o.tracePath != "" {
		err := writeOut(o.tracePath, func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(o.tracer.Spans())
		})
		if err != nil {
			return fmt.Errorf("writing -trace: %w", err)
		}
	}
	if o.statsPath != "" {
		m := obs.NewManifest(o.tool)
		m.FillStages(o.tracer)
		if fill != nil {
			fill(&m)
		}
		err := writeOut(o.statsPath, func(f *os.File) error { return m.WriteJSON(f) })
		if err != nil {
			return fmt.Errorf("writing -stats: %w", err)
		}
	}
	return nil
}
