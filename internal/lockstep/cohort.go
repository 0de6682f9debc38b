package lockstep

// Cohort grouping: which design points of a sweep may share one trace
// generation pass. The rule is strict — a cohort key is every knob that
// affects the synthetic trace bytes, so two points in one cohort
// consume bit-identical streams and lockstep execution cannot change
// their results. Anything outside the key (window sizes, widths,
// functional units, latencies — the whole cpu.Config design space of a
// trace-driven sweep) is free to vary inside a cohort.

// Key is the cohort identity of one design point: the inputs that
// determine the synthetic trace. Points with unequal keys must never
// share a generation pass; points with equal keys always may.
type Key struct {
	Workload string
	K        int
	R        uint64
	Seed     uint64
}

// Point is one design point as the planner sees it: its cohort key and
// its position in the caller's grid.
type Point struct {
	Key   Key
	Index int
}

// Cohort is a set of grid indices proven safe to share one generation
// pass, in ascending input order.
type Cohort struct {
	Key     Key
	Indices []int
}

// Cohorts partitions points into cohorts by key, preserving first-
// appearance order across cohorts and input order within each.
func Cohorts(pts []Point) []Cohort {
	var out []Cohort
	byKey := make(map[Key]int)
	for _, p := range pts {
		ci, ok := byKey[p.Key]
		if !ok {
			ci = len(out)
			byKey[p.Key] = ci
			out = append(out, Cohort{Key: p.Key})
		}
		out[ci].Indices = append(out[ci].Indices, p.Index)
	}
	return out
}

// DefaultMaxGroup caps how many pipeline instances one generation pass
// drives. Past ~16 the marginal amortisation win per extra instance is
// tiny while the aggregate working set (N pipeline windows) grows
// linearly, so larger cohorts are split.
const DefaultMaxGroup = 16

// Options shapes a sweep execution plan.
type Options struct {
	// MaxGroup caps instances per lockstep group (0 = DefaultMaxGroup,
	// 1 forces the serial per-point path for every point).
	MaxGroup int
	// Parallel is the worker count the plan should keep busy: a cohort
	// is split into at least this many groups (when it has that many
	// points), because a lockstep group occupies a single worker.
	// 0 means 1.
	Parallel int
}

// Group is one schedulable unit of a plan: a slice of a cohort that
// runs as a single lockstep batch on one worker (serial per-point when
// it has one element).
type Group struct {
	Key     Key
	Indices []int
}

// Plan splits points into cohorts and each cohort into contiguous,
// near-equal groups — enough groups to occupy opts.Parallel workers,
// none larger than opts.MaxGroup. The plan is a pure function of
// (points, opts): worker scheduling can vary at runtime, but group
// membership — and therefore every simulated stream — cannot.
func Plan(pts []Point, opts Options) []Group {
	maxGroup := opts.MaxGroup
	if maxGroup <= 0 {
		maxGroup = DefaultMaxGroup
	}
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = 1
	}
	var out []Group
	for _, c := range Cohorts(pts) {
		n := len(c.Indices)
		groups := (n + maxGroup - 1) / maxGroup
		if groups < parallel {
			groups = parallel
		}
		if groups > n {
			groups = n
		}
		// Contiguous split into `groups` parts, sizes differing by at
		// most one (the first n%groups parts get the extra point).
		base, extra := n/groups, n%groups
		start := 0
		for gi := 0; gi < groups; gi++ {
			size := base
			if gi < extra {
				size++
			}
			out = append(out, Group{Key: c.Key, Indices: c.Indices[start : start+size]})
			start += size
		}
	}
	return out
}
