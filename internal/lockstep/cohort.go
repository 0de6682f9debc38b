package lockstep

// Cohort grouping: which design points of a sweep may share one trace
// generation pass. The rule is strict — a cohort key is every knob that
// affects the synthetic trace bytes, so two points in one cohort
// consume bit-identical streams and lockstep execution cannot change
// their results. Anything outside the key (window sizes, widths,
// functional units, latencies — the whole cpu.Config design space of a
// trace-driven sweep) is free to vary inside a cohort.

// Key is the cohort identity of one design point: the inputs that
// determine the synthetic trace of one graph. Points with unequal keys
// must never share a generation pass; points with equal keys always
// may.
type Key struct {
	K    int
	R    uint64
	Seed uint64
}

// Point is one design point as the planner sees it: its cohort key and
// its position in the caller's grid.
type Point struct {
	Key   Key
	Index int
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

// Plan splits one cohort's points into contiguous, near-equal groups —
// enough groups to occupy opts.Parallel workers, none larger than
// opts.MaxGroup. Every point must carry the same key: Plan panics
// otherwise, so two trace identities can never share a group. The plan
// is a pure function of (points, opts): worker scheduling can vary at
// runtime, but group membership — and therefore every simulated stream
// — cannot.
func Plan(pts []Point, opts Options) []Group {
	if len(pts) == 0 {
		return nil
	}
	key := pts[0].Key
	indices := make([]int, len(pts))
	for i, p := range pts {
		if p.Key != key {
			panic("lockstep: Plan over points of different cohorts")
		}
		indices[i] = p.Index
	}
	maxGroup := opts.MaxGroup
	if maxGroup <= 0 {
		maxGroup = DefaultMaxGroup
	}
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = 1
	}
	n := len(indices)
	groups := (n + maxGroup - 1) / maxGroup
	if groups < parallel {
		groups = parallel
	}
	if groups > n {
		groups = n
	}
	// Contiguous split into `groups` parts, sizes differing by at most
	// one (the first n%groups parts get the extra point).
	out := make([]Group, 0, groups)
	base, extra := n/groups, n%groups
	start := 0
	for gi := 0; gi < groups; gi++ {
		size := base
		if gi < extra {
			size++
		}
		out = append(out, Group{Key: key, Indices: indices[start : start+size]})
		start += size
	}
	return out
}
