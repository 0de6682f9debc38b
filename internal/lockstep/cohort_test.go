package lockstep_test

import (
	"reflect"
	"testing"

	"repro/internal/lockstep"
)

func pt(key lockstep.Key, i int) lockstep.Point { return lockstep.Point{Key: key, Index: i} }

// TestCohortsNeverMixTraceKnobs: two points differing in any
// trace-affecting knob — workload, profile depth k, reduction R or trace
// seed — must never share a cohort.
func TestCohortsNeverMixTraceKnobs(t *testing.T) {
	base := lockstep.Key{Workload: "gcc-like", K: 1, R: 16, Seed: 7}
	mutate := func(mut func(*lockstep.Key)) lockstep.Key {
		k := base
		mut(&k)
		return k
	}
	cases := []struct {
		name  string
		other lockstep.Key
	}{
		{"workload", mutate(func(k *lockstep.Key) { k.Workload = "mcf-like" })},
		{"k", mutate(func(k *lockstep.Key) { k.K = 2 })},
		{"r", mutate(func(k *lockstep.Key) { k.R = 32 })},
		{"seed", mutate(func(k *lockstep.Key) { k.Seed = 8 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cohorts := lockstep.Cohorts([]lockstep.Point{pt(base, 0), pt(tc.other, 1), pt(base, 2)})
			for _, c := range cohorts {
				for _, i := range c.Indices {
					if (i == 1) != (c.Key == tc.other) {
						t.Fatalf("point 1 (differing %s) grouped with base points: %+v", tc.name, cohorts)
					}
				}
			}
			if len(cohorts) < 2 {
				t.Fatalf("differing %s collapsed into %d cohort(s)", tc.name, len(cohorts))
			}
		})
	}
}

// TestCohortsPreserveOrder: cohorts appear in first-appearance order
// and hold their indices in input order.
func TestCohortsPreserveOrder(t *testing.T) {
	a := lockstep.Key{Workload: "a", R: 1, Seed: 1}
	b := lockstep.Key{Workload: "b", R: 1, Seed: 1}
	got := lockstep.Cohorts([]lockstep.Point{pt(a, 3), pt(b, 1), pt(a, 0), pt(b, 2)})
	want := []lockstep.Cohort{
		{Key: a, Indices: []int{3, 0}},
		{Key: b, Indices: []int{1, 2}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cohorts = %+v, want %+v", got, want)
	}
}

func planIndices(groups []lockstep.Group) []int {
	var out []int
	for _, g := range groups {
		out = append(out, g.Indices...)
	}
	return out
}

// TestPlanShapes pins the planner's arithmetic: every index exactly
// once in order, no group above MaxGroup, at least Parallel groups per
// large-enough cohort, sizes within one of each other.
func TestPlanShapes(t *testing.T) {
	key := lockstep.Key{Workload: "a", R: 1, Seed: 1}
	mkPts := func(n int) []lockstep.Point {
		pts := make([]lockstep.Point, n)
		for i := range pts {
			pts[i] = pt(key, i)
		}
		return pts
	}
	cases := []struct {
		name       string
		n          int
		opts       lockstep.Options
		wantGroups int
	}{
		{"single point", 1, lockstep.Options{}, 1},
		{"one group default cap", 16, lockstep.Options{}, 1},
		{"above default cap", 17, lockstep.Options{}, 2},
		{"parallel splits", 16, lockstep.Options{Parallel: 4}, 4},
		{"parallel capped by n", 3, lockstep.Options{Parallel: 8}, 3},
		{"max group 1 is serial", 5, lockstep.Options{MaxGroup: 1}, 5},
		{"max group 7", 12, lockstep.Options{MaxGroup: 7}, 2},
		{"paper grid shape", 1792, lockstep.Options{MaxGroup: 16, Parallel: 8}, 112},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := mkPts(tc.n)
			groups := lockstep.Plan(pts, tc.opts)
			if len(groups) != tc.wantGroups {
				t.Fatalf("Plan(n=%d, %+v) made %d groups, want %d", tc.n, tc.opts, len(groups), tc.wantGroups)
			}
			maxGroup := tc.opts.MaxGroup
			if maxGroup <= 0 {
				maxGroup = lockstep.DefaultMaxGroup
			}
			minSize, maxSize := tc.n, 0
			for _, g := range groups {
				if len(g.Indices) > maxGroup {
					t.Fatalf("group of %d exceeds MaxGroup %d", len(g.Indices), maxGroup)
				}
				if len(g.Indices) < minSize {
					minSize = len(g.Indices)
				}
				if len(g.Indices) > maxSize {
					maxSize = len(g.Indices)
				}
			}
			if maxSize-minSize > 1 {
				t.Fatalf("group sizes spread %d..%d, want near-equal", minSize, maxSize)
			}
			want := make([]int, tc.n)
			for i := range want {
				want[i] = i
			}
			if got := planIndices(groups); !reflect.DeepEqual(got, want) {
				t.Fatalf("plan scrambled indices: %v", got)
			}
			// Purity: the plan must be a function of its inputs alone.
			if again := lockstep.Plan(pts, tc.opts); !reflect.DeepEqual(groups, again) {
				t.Fatal("Plan is not deterministic")
			}
		})
	}
}

// TestPlanMixedCohorts: a grid spanning two trace identities plans into
// per-identity groups with no cross-contamination.
func TestPlanMixedCohorts(t *testing.T) {
	a := lockstep.Key{Workload: "a", K: 1, R: 1, Seed: 1}
	b := lockstep.Key{Workload: "a", K: 2, R: 1, Seed: 1}
	var pts []lockstep.Point
	for i := 0; i < 20; i++ {
		k := a
		if i%2 == 1 {
			k = b
		}
		pts = append(pts, pt(k, i))
	}
	for _, g := range lockstep.Plan(pts, lockstep.Options{MaxGroup: 4, Parallel: 2}) {
		for _, i := range g.Indices {
			if wantB := i%2 == 1; (g.Key == b) != wantB {
				t.Fatalf("index %d planned into key %+v", i, g.Key)
			}
		}
	}
}
