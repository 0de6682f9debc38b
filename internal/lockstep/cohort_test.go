package lockstep_test

import (
	"reflect"
	"testing"

	"repro/internal/lockstep"
)

func pt(key lockstep.Key, i int) lockstep.Point { return lockstep.Point{Key: key, Index: i} }

// mustPanic runs Plan over pts and fails unless it panics.
func mustPanic(t *testing.T, pts []lockstep.Point) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("Plan accepted points of different cohorts")
		}
	}()
	lockstep.Plan(pts, lockstep.Options{Parallel: 2})
}

// TestCohortsNeverMixTraceKnobs: two points differing in any
// trace-affecting knob — profile depth k, reduction R or trace seed —
// must never share a group, so Plan refuses the grid, even when the odd
// point comes last.
func TestCohortsNeverMixTraceKnobs(t *testing.T) {
	base := lockstep.Key{K: 1, R: 16, Seed: 7}
	mutate := func(mut func(*lockstep.Key)) lockstep.Key {
		k := base
		mut(&k)
		return k
	}
	cases := []struct {
		name  string
		other lockstep.Key
	}{
		{"k", mutate(func(k *lockstep.Key) { k.K = 2 })},
		{"r", mutate(func(k *lockstep.Key) { k.R = 32 })},
		{"seed", mutate(func(k *lockstep.Key) { k.Seed = 8 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic(t, []lockstep.Point{pt(base, 0), pt(base, 1), pt(tc.other, 2)})
		})
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
// once in order, no group above DefaultMaxGroup, at least Parallel
// groups per large-enough cohort, sizes within one of each other.
func TestPlanShapes(t *testing.T) {
	key := lockstep.Key{R: 1, Seed: 1}
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
		{"parallel n is serial", 5, lockstep.Options{Parallel: 5}, 5},
		{"paper grid shape", 1792, lockstep.Options{Parallel: 8}, 112},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := mkPts(tc.n)
			groups := lockstep.Plan(pts, tc.opts)
			if len(groups) != tc.wantGroups {
				t.Fatalf("Plan(n=%d, %+v) made %d groups, want %d", tc.n, tc.opts, len(groups), tc.wantGroups)
			}
			minSize, maxSize := tc.n, 0
			for _, g := range groups {
				if len(g.Indices) > lockstep.DefaultMaxGroup {
					t.Fatalf("group of %d exceeds DefaultMaxGroup %d", len(g.Indices), lockstep.DefaultMaxGroup)
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

// TestPlanMixedCohorts: a grid spanning two trace identities is refused
// outright rather than planned.
func TestPlanMixedCohorts(t *testing.T) {
	a := lockstep.Key{K: 1, R: 1, Seed: 1}
	b := lockstep.Key{K: 2, R: 1, Seed: 1}
	var pts []lockstep.Point
	for i := 0; i < 20; i++ {
		k := a
		if i%2 == 1 {
			k = b
		}
		pts = append(pts, pt(k, i))
	}
	mustPanic(t, pts)
}
