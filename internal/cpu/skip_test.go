package cpu

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

// skipCase is one cell of the idle-skip differential: a configuration,
// a simulation mode and a RunToFetch segmentation (0 = one Run call).
type skipCase struct {
	cfg Config
	eds bool
	seg uint64
}

func (c skipCase) pipeline(insts []trace.DynInst) *Pipeline {
	if c.eds {
		return NewExecutionDriven(c.cfg, trace.NewSliceSource(insts))
	}
	return NewTraceDriven(c.cfg, trace.NewSliceSource(insts))
}

// runSegmented drives p to the drain in RunToFetch steps of seg stream
// positions, as the lockstep driver does, or with one Run for seg 0.
func runSegmented(p *Pipeline, seg uint64) Result {
	if seg == 0 {
		return p.Run()
	}
	for limit := seg; !p.RunToFetch(limit); limit += seg {
	}
	return p.Finalize()
}

// checkSkipMatchesStepping runs insts through c with idle skipping and
// through the one-cycle-at-a-time reference, requires the full Results
// to be equal, and returns the number of cycles the skip fast-forwarded.
func checkSkipMatchesStepping(t *testing.T, label string, c skipCase, insts []trace.DynInst) uint64 {
	t.Helper()
	ref := c.pipeline(insts)
	ref.stepEveryCycle = true
	want := ref.Run()
	if ref.skipped != 0 {
		t.Fatalf("%s: reference skipped %d cycles", label, ref.skipped)
	}
	p := c.pipeline(insts)
	got := runSegmented(p, c.seg)
	if got != want {
		gj, _ := json.MarshalIndent(got, "", " ")
		wj, _ := json.MarshalIndent(want, "", " ")
		t.Fatalf("%s: idle skipping diverged from stepping\nskip: %s\nstep: %s", label, gj, wj)
	}
	return p.skipped
}

// skipConfig builds the differential's configuration from its knobs.
func skipConfig(inorder, small bool, warmup uint64) Config {
	cfg := DefaultConfig()
	cfg.InOrder = inorder
	cfg.WarmupInsts = warmup
	if small {
		cfg.RUUSize, cfg.LSQSize, cfg.IFQSize = 16, 8, 4
		cfg.FetchSpeed = 1
		cfg.DecodeWidth, cfg.IssueWidth, cfg.CommitWidth = 2, 2, 2
	}
	return cfg
}

// TestIdleSkipMatchesStepping pins the event-driven kernel to the
// one-cycle-at-a-time reference: every Result field — cycles, stall
// counters, occupancy histograms and sums, activity counts — must be
// equal with skipping on and off, across issue disciplines, window
// shapes, trace- and execution-driven modes, a statistics warm-up, and
// RunToFetch segmentations.
func TestIdleSkipMatchesStepping(t *testing.T) {
	var skipped uint64
	for _, seed := range []uint64{1, 2, 3} {
		insts := randomStream(seed, 1500)
		for _, inorder := range []bool{false, true} {
			for _, small := range []bool{false, true} {
				for _, eds := range []bool{false, true} {
					for _, warmup := range []uint64{0, 500} {
						for _, seg := range []uint64{0, 1, 7, 512} {
							c := skipCase{cfg: skipConfig(inorder, small, warmup), eds: eds, seg: seg}
							label := fmt.Sprintf("seed=%d inorder=%v small=%v eds=%v warmup=%d seg=%d",
								seed, inorder, small, eds, warmup, seg)
							skipped += checkSkipMatchesStepping(t, label, c, insts)
						}
					}
				}
			}
		}
	}
	// A generated program under live caches and predictor: fetch
	// stalls that outlast a drained back end, which random streams
	// rarely produce, put the fetch-resume event first.
	prog := program.MustGenerate(program.Personality{Name: "t", Seed: 42, TargetBlocks: 120})
	insts := program.NewExecutor(prog, 7).Run(30_000)
	for _, inorder := range []bool{false, true} {
		for _, seg := range []uint64{0, 7} {
			c := skipCase{cfg: skipConfig(inorder, false, 0), eds: true, seg: seg}
			skipped += checkSkipMatchesStepping(t, fmt.Sprintf("program inorder=%v seg=%d", inorder, seg), c, insts)
		}
	}
	if skipped == 0 {
		t.Fatal("no cycle was skipped: the differential did not exercise idle skipping")
	}
}

// FuzzIdleSkip fuzzes the same property over stream seeds, issue
// discipline, window shape, mode, warm-up length and segmentation.
func FuzzIdleSkip(f *testing.F) {
	f.Add(uint64(1), false, false, false, uint16(0), uint16(0))
	f.Add(uint64(2), true, true, false, uint16(500), uint16(7))
	f.Add(uint64(3), false, true, true, uint16(0), uint16(1))
	f.Add(uint64(4), true, false, true, uint16(300), uint16(512))
	f.Add(uint64(5), false, false, true, uint16(1499), uint16(64))
	f.Fuzz(func(t *testing.T, seed uint64, inorder, small, eds bool, warmup, seg uint16) {
		insts := randomStream(seed, 1000)
		c := skipCase{cfg: skipConfig(inorder, small, uint64(warmup)%1200), eds: eds, seg: uint64(seg) % 1024}
		checkSkipMatchesStepping(t, fmt.Sprintf("%+v", c), c, insts)
	})
}

// TestIdleSkipKeepsWatchdog: a run that never commits panics at the same
// cycle, with the same message, whether its idle cycles are stepped or
// skipped — the watchdog's cycle is one the skip must step.
func TestIdleSkipKeepsWatchdog(t *testing.T) {
	wedged := func(stepEveryCycle bool) (msg string) {
		cfg := DefaultConfig()
		p := NewTraceDriven(cfg, trace.NewSliceSource(randomStream(1, 1500)))
		p.stepEveryCycle = stepEveryCycle
		p.RunToFetch(200)
		if p.ruuLen == 0 {
			t.Fatal("RUU empty after 200 fetched instructions")
		}
		// Wedge the oldest in-flight instruction on an operand no
		// producer will ever deliver.
		en := &p.ruu[p.ruuHead]
		en.state, en.waitCount = stateWaiting, 1
		defer func() { msg = fmt.Sprint(recover()) }()
		p.Run()
		return "run drained"
	}
	step, skip := wedged(true), wedged(false)
	if !strings.Contains(step, "no commit for 1M cycles") {
		t.Fatalf("stepped wedge: %s", step)
	}
	if skip != step {
		t.Fatalf("skipped wedge panicked with %q, stepped with %q", skip, step)
	}
}
