package stats

import (
	"math"
	"sort"
)

// DBSCAN clusters the points (rows of pts) with the classic density-based
// algorithm. It returns a cluster id per point; noise points are assigned
// fresh singleton cluster ids rather than -1, because the Grid Tree treats
// every query as belonging to exactly one query type (§4.3.1).
//
// eps is the neighborhood radius (Euclidean); minPts is the core-point
// threshold including the point itself. The paper uses eps=0.2 on
// selectivity embeddings and reports never needing to tune it.
func DBSCAN(pts [][]float64, eps float64, minPts int) []int {
	n := len(pts)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1 // unvisited / noise
	}
	eps2 := eps * eps
	neighbors := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if dist2(pts[i], pts[j]) <= eps2 {
				out = append(out, j)
			}
		}
		return out
	}
	next := 0
	for i := 0; i < n; i++ {
		if labels[i] != -1 {
			continue
		}
		nb := neighbors(i)
		if len(nb) < minPts {
			continue // provisionally noise; may be claimed by a later cluster
		}
		c := next
		next++
		labels[i] = c
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == -1 {
				labels[j] = c
				nj := neighbors(j)
				if len(nj) >= minPts {
					queue = append(queue, nj...)
				}
			}
		}
	}
	// Promote remaining noise to singleton clusters.
	for i := range labels {
		if labels[i] == -1 {
			labels[i] = next
			next++
		}
	}
	return labels
}

func dist2(a, b []float64) float64 {
	s := 0.0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// NumClusters returns 1 + the maximum label, i.e. the number of clusters
// produced by DBSCAN.
func NumClusters(labels []int) int {
	max := -1
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	return max + 1
}

// Percentile returns the p-th percentile (0..100) of xs using nearest-rank
// on a sorted copy. It returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
