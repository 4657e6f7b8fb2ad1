// Package octree implements the hyperoctree baseline (§6.1): space is
// recursively subdivided equally into hyperoctants (the d-dimensional
// analog of quadrants) until each leaf holds at most pageSize points.
//
// Children are kept sparsely — only non-empty octants materialize — so the
// structure stays feasible at high dimensionality (2^d potential children
// per node, Fig 10 goes to d=20).
package octree

import (
	"sort"
	"time"

	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
)

// Index is a clustered hyperoctree.
type Index struct {
	store    *colstore.Store
	root     *node
	pageSize int
	numNodes int
	stats    index.BuildStats
}

type node struct {
	lo, hi   []int64 // inclusive region bounds
	children map[uint32]*node
	// Leaf range [start, end) in physical storage.
	start, end int
	leaf       bool
}

// maxDepth bounds recursion; beyond it oversized leaves are accepted.
const maxDepth = 24

// Build constructs the hyperoctree over a reordered copy of s, with leaves
// of at most pageSize points (pageSize <= 0 uses 4096).
func Build(s *colstore.Store, pageSize int) *Index {
	if pageSize <= 0 {
		pageSize = 4096
	}
	if s.NumDims() > 32 {
		panic("octree: more than 32 dimensions not supported")
	}
	sortStart := time.Now()
	// The build reads s through x.store, then the store becomes s's rows
	// in leaf order.
	x := &Index{store: s, pageSize: pageSize}
	n := s.NumRows()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	d := s.NumDims()
	lo := make([]int64, d)
	hi := make([]int64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = s.MinMax(j)
	}
	x.root = x.build(rows, 0, 0, lo, hi)
	x.store = s.Gather(rows, nil)
	x.stats = index.BuildStats{SortSeconds: time.Since(sortStart).Seconds()}
	return x
}

func (x *Index) build(rows []int, offset, depth int, lo, hi []int64) *node {
	x.numNodes++
	nd := &node{lo: append([]int64(nil), lo...), hi: append([]int64(nil), hi...)}
	if len(rows) <= x.pageSize || depth >= maxDepth || !splittable(lo, hi) {
		nd.leaf = true
		nd.start, nd.end = offset, offset+len(rows)
		return nd
	}
	d := x.store.NumDims()
	mid := make([]int64, d)
	for j := 0; j < d; j++ {
		// Midpoint; for a one-value extent the dimension contributes no bit.
		mid[j] = lo[j] + (hi[j]-lo[j])/2
	}
	// Bucket rows by octant key: bit j set iff value > mid[j].
	buckets := make(map[uint32][]int)
	for _, r := range rows {
		var key uint32
		for j := 0; j < d; j++ {
			if x.store.Value(r, j) > mid[j] {
				key |= 1 << uint(j)
			}
		}
		buckets[key] = append(buckets[key], r)
	}
	if len(buckets) == 1 {
		// Degenerate: all points in one octant of a splittable box — recurse
		// directly into the shrunken box to avoid infinite same-size loops.
		for key, b := range buckets {
			clo, chi := octantBounds(lo, hi, mid, key)
			copy(rows, b)
			nd.children = map[uint32]*node{key: x.build(rows, offset, depth+1, clo, chi)}
		}
		return nd
	}
	nd.children = make(map[uint32]*node, len(buckets))
	// Deterministic order: ascending key.
	keys := make([]uint32, 0, len(buckets))
	for key := range buckets {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	cur := offset
	pos := 0
	for _, key := range keys {
		b := buckets[key]
		clo, chi := octantBounds(lo, hi, mid, key)
		copy(rows[pos:pos+len(b)], b)
		nd.children[key] = x.build(rows[pos:pos+len(b)], cur, depth+1, clo, chi)
		cur += len(b)
		pos += len(b)
	}
	return nd
}

func splittable(lo, hi []int64) bool {
	for j := range lo {
		if hi[j] > lo[j] {
			return true
		}
	}
	return false
}

func octantBounds(lo, hi, mid []int64, key uint32) ([]int64, []int64) {
	d := len(lo)
	clo := make([]int64, d)
	chi := make([]int64, d)
	for j := 0; j < d; j++ {
		if key&(1<<uint(j)) != 0 {
			clo[j], chi[j] = mid[j]+1, hi[j]
		} else {
			clo[j], chi[j] = lo[j], mid[j]
		}
	}
	return clo, chi
}

// Name implements index.Index.
func (x *Index) Name() string { return "Hyperoctree" }

// NumNodes returns the total node count.
func (x *Index) NumNodes() int { return x.numNodes }

// BuildStats returns the build timing split.
func (x *Index) BuildStats() index.BuildStats { return x.stats }

// Execute implements index.Index: Plan, then scan the plan.
func (x *Index) Execute(q query.Query) colstore.ScanResult {
	return x.Plan(q, index.Exec{}).Execute()
}

// Plan implements index.Index: intersecting leaves plan their physical
// ranges, with partially-covered octants filtered on the store's
// branch-free scan kernel. The tree is immutable after Build and
// traversal state is on the stack, so Plan is safe for concurrent
// callers sharing one index.
func (x *Index) Plan(q query.Query, _ index.Exec) index.Plan {
	p := index.NewRangePlan(x.store, q)
	x.visit(x.root, q, p)
	return p
}

func (x *Index) visit(nd *node, q query.Query, p *index.RangePlan) {
	if !q.IntersectsBox(nd.lo, nd.hi) {
		return
	}
	if nd.leaf {
		p.Add(nd.start, nd.end, q.ContainsBox(nd.lo, nd.hi))
		return
	}
	for _, c := range nd.children {
		x.visit(c, q, p)
	}
}

// SizeBytes implements index.Index: per-node bounds plus child map entries.
func (x *Index) SizeBytes() uint64 {
	d := uint64(x.store.NumDims())
	return uint64(x.numNodes) * (48 + 16*d)
}
