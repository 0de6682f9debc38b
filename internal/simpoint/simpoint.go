// Package simpoint implements a SimPoint-style representative-sampling
// comparator (Sherwood et al., ASPLOS 2002), used by the paper's Fig. 8
// as the accuracy reference for phase-aware simulation.
//
// The pipeline is the published one, scaled down: split the committed
// instruction stream into fixed-length intervals, build a basic-block
// vector (BBV) per interval, randomly project the BBVs to a small
// dimension, cluster them with k-means (choosing k by a BIC-like
// penalised score), and return one representative interval per cluster,
// weighted by cluster population.
package simpoint

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures simulation-point selection.
type Options struct {
	IntervalLen uint64 // instructions per interval (paper: 10M; scale down)
	MaxK        int    // maximum clusters to consider (default 10)
	Seed        uint64
}

// The BBV random-projection dimension and the k-means restarts per k.
const (
	projectionDim = 15
	restarts      = 3
)

func (o Options) withDefaults() Options {
	if o.MaxK == 0 {
		o.MaxK = 10
	}
	return o
}

// Point is one selected simulation point.
type Point struct {
	Interval int     // interval index (interval i covers [i*L, (i+1)*L))
	Weight   float64 // fraction of execution this point represents
}

// BBVs builds one normalised, randomly projected basic-block vector per
// interval of the stream.
func BBVs(src trace.Source, opts Options) ([][]float64, error) {
	if opts.IntervalLen == 0 {
		return nil, fmt.Errorf("simpoint: IntervalLen must be positive")
	}
	var vecs [][]float64
	counts := map[int32]uint64{}
	var n uint64
	flush := func() {
		if n == 0 {
			return
		}
		// Accumulate in sorted block order: floating-point addition is
		// not associative, and map iteration order would make the
		// projections — and thus the chosen points — nondeterministic.
		blocks := make([]int32, 0, len(counts))
		for b := range counts {
			blocks = append(blocks, b)
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		v := make([]float64, projectionDim)
		for _, b := range blocks {
			w := float64(counts[b]) / float64(n)
			for dim := 0; dim < projectionDim; dim++ {
				v[dim] += w * projection(b, dim, opts.Seed)
			}
		}
		vecs = append(vecs, v)
		counts = map[int32]uint64{}
		n = 0
	}
	buf := trace.GetBatch()
	defer trace.PutBatch(buf)
	for k := src.NextBatch(buf); k > 0; k = src.NextBatch(buf) {
		for i := range buf[:k] {
			counts[buf[i].BlockID]++
			n++
			if n >= opts.IntervalLen {
				flush()
			}
		}
	}
	// A trailing partial interval is kept only if it is at least half
	// full, as in the SimPoint tool.
	if n >= opts.IntervalLen/2 {
		flush()
	}
	if len(vecs) == 0 {
		return nil, fmt.Errorf("simpoint: stream shorter than one interval")
	}
	return vecs, nil
}

// projection returns a deterministic pseudo-random value in [-1, 1] for
// (block, dimension).
func projection(block int32, dim int, seed uint64) float64 {
	x := seed ^ uint64(uint32(block))<<20 ^ uint64(dim)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return 2*float64(x>>11)/(1<<53) - 1
}

// Choose selects simulation points from the stream.
func Choose(src trace.Source, opts Options) ([]Point, error) {
	c, err := Clusters(src, opts)
	if err != nil {
		return nil, err
	}
	return c.Points, nil
}

// Clustering is the full phase structure Choose summarises: every
// interval's cluster assignment alongside the representative points.
// The adaptive fidelity engine consumes it as a stratification — each
// cluster is one stratum whose members are sampling units.
type Clustering struct {
	Intervals int     // intervals in the stream
	Points    []Point // one representative per non-empty cluster
	// Members[i] lists the interval indices belonging to Points[i]'s
	// cluster, ascending; Points[i].Interval is always among them and
	// len(Members[i]) / Intervals == Points[i].Weight.
	Members [][]int
}

// Clusters selects simulation points and returns the full clustering
// behind them.
func Clusters(src trace.Source, opts Options) (*Clustering, error) {
	opts = opts.withDefaults()
	vecs, err := BBVs(src, opts)
	if err != nil {
		return nil, err
	}
	return clusterBBVs(vecs, opts), nil
}

func clusterBBVs(vecs [][]float64, opts Options) *Clustering {
	n := len(vecs)
	maxK := opts.MaxK
	if maxK > n {
		maxK = n
	}
	rng := stats.NewRNG(opts.Seed + 1)

	// Best clustering per k over the restarts.
	bestSSE := make([]float64, maxK+1)
	bestAssignK := make([][]int, maxK+1)
	for k := 1; k <= maxK; k++ {
		bestSSE[k] = math.Inf(1)
		for r := 0; r < restarts; r++ {
			assign, sse := kmeans(vecs, k, rng)
			if sse < bestSSE[k] {
				bestSSE[k] = sse
				bestAssignK[k] = assign
			}
		}
	}
	// Model selection: the smallest k whose within-cluster error is a
	// small fraction of the single-cluster error (SimPoint's BIC serves
	// the same purpose). An absolute floor handles near-homogeneous
	// streams whose SSE is already negligible at k = 1.
	bestK := maxK
	threshold := 0.05 * bestSSE[1]
	if floor := 1e-4 * float64(n); threshold < floor {
		threshold = floor
	}
	for k := 1; k <= maxK; k++ {
		if bestSSE[k] <= threshold {
			bestK = k
			break
		}
	}
	bestAssign := bestAssignK[bestK]

	// Representative per cluster: the interval closest to its centroid.
	centroids := centroidsOf(vecs, bestAssign, bestK, projectionDim)
	repIdx := make([]int, bestK)
	repDist := make([]float64, bestK)
	size := make([]int, bestK)
	for i := range repDist {
		repDist[i] = math.Inf(1)
	}
	for i, a := range bestAssign {
		size[a]++
		d := dist2(vecs[i], centroids[a])
		if d < repDist[a] {
			repDist[a] = d
			repIdx[a] = i
		}
	}
	out := &Clustering{Intervals: n}
	for c := 0; c < bestK; c++ {
		if size[c] == 0 {
			continue
		}
		members := make([]int, 0, size[c])
		for i, a := range bestAssign {
			if a == c {
				members = append(members, i)
			}
		}
		out.Points = append(out.Points, Point{Interval: repIdx[c], Weight: float64(size[c]) / float64(n)})
		out.Members = append(out.Members, members)
	}
	return out
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func centroidsOf(vecs [][]float64, assign []int, k, dim int) [][]float64 {
	cent := make([][]float64, k)
	cnt := make([]int, k)
	for i := range cent {
		cent[i] = make([]float64, dim)
	}
	for i, a := range assign {
		cnt[a]++
		for d := 0; d < dim; d++ {
			cent[a][d] += vecs[i][d]
		}
	}
	for c := 0; c < k; c++ {
		if cnt[c] > 0 {
			for d := 0; d < dim; d++ {
				cent[c][d] /= float64(cnt[c])
			}
		}
	}
	return cent
}

// kmeans clusters vecs into k groups (k-means++ seeding, Lloyd
// iterations) and returns the assignment and total within-cluster SSE.
func kmeans(vecs [][]float64, k int, rng *stats.RNG) ([]int, float64) {
	n := len(vecs)
	dim := len(vecs[0])
	// k-means++ seeding.
	centers := make([][]float64, 0, k)
	first := rng.Intn(n)
	centers = append(centers, append([]float64(nil), vecs[first]...))
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = dist2(vecs[i], centers[0])
	}
	for len(centers) < k {
		var total float64
		for _, d := range minD {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			for i, d := range minD {
				target -= d
				if target <= 0 {
					pick = i
					break
				}
			}
		}
		centers = append(centers, append([]float64(nil), vecs[pick]...))
		for i := range minD {
			if d := dist2(vecs[i], centers[len(centers)-1]); d < minD[i] {
				minD[i] = d
			}
		}
	}

	assign := make([]int, n)
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i := range vecs {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := dist2(vecs[i], centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		centers = centroidsOf(vecs, assign, k, dim)
	}
	var sse float64
	for i, a := range assign {
		sse += dist2(vecs[i], centers[a])
	}
	return assign, sse
}
