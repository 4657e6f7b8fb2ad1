// Package kdtree implements the k-d tree baseline (§2.1, §6.1): space is
// recursively partitioned at the median value of one dimension at a time,
// cycling through dimensions round-robin in order of workload selectivity,
// until each leaf holds at most pageSize points. Leaf point sets are stored
// contiguously, so the index is clustered.
package kdtree

import (
	"sort"
	"time"

	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
)

// Index is a clustered k-d tree.
type Index struct {
	store    *colstore.Store
	root     *node
	pageSize int
	dimOrder []int
	numNodes int
	stats    index.BuildStats
}

type node struct {
	// Split node fields: children partition rows by col[splitDim] < splitVal.
	splitDim int
	splitVal int64
	left     *node
	right    *node
	// Leaf fields: physical range [start, end).
	start, end int
	leaf       bool
	// Bounding box of the node's region (inclusive), used for exact-range
	// detection during scans.
	boxLo, boxHi []int64
}

// Build constructs the k-d tree over a reordered copy of s, with leaves
// of at most pageSize points (pageSize <= 0 uses 4096) and dimensions
// cycled in workload-selectivity order (most selective first).
func Build(s *colstore.Store, workload []query.Query, pageSize int) *Index {
	if pageSize <= 0 {
		pageSize = 4096
	}
	optStart := time.Now()
	order := selectivityOrder(s, workload)
	opt := time.Since(optStart).Seconds()

	sortStart := time.Now()
	n := s.NumRows()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	// The build reads s through x.store, then the store becomes s's rows
	// in leaf order.
	x := &Index{store: s, pageSize: pageSize, dimOrder: order}
	boxLo := make([]int64, s.NumDims())
	boxHi := make([]int64, s.NumDims())
	for d := 0; d < s.NumDims(); d++ {
		boxLo[d], boxHi[d] = s.MinMax(d)
	}
	x.root = x.build(rows, 0, 0, boxLo, boxHi)
	x.store = s.Gather(rows, nil)
	x.stats = index.BuildStats{SortSeconds: time.Since(sortStart).Seconds(), OptimizeSeconds: opt}
	return x
}

// build recursively partitions rows[...] (a slice into the global row
// permutation being constructed); offset is the physical start of the slice.
func (x *Index) build(rows []int, offset, depth int, boxLo, boxHi []int64) *node {
	x.numNodes++
	nd := &node{
		boxLo: append([]int64(nil), boxLo...),
		boxHi: append([]int64(nil), boxHi...),
	}
	if len(rows) <= x.pageSize {
		nd.leaf = true
		nd.start, nd.end = offset, offset+len(rows)
		return nd
	}
	dim := x.dimOrder[depth%len(x.dimOrder)]
	col := x.store.Column(dim)
	// Median split: sort the slice by this dimension and cut at the middle,
	// advancing past duplicates so the split value is a real boundary.
	sort.Slice(rows, func(a, b int) bool { return col[rows[a]] < col[rows[b]] })
	mid := len(rows) / 2
	medVal := col[rows[mid]]
	// Move mid to the first occurrence of medVal so left gets < medVal.
	lo := sort.Search(len(rows), func(i int) bool { return col[rows[i]] >= medVal })
	if lo == 0 {
		// All values from the start equal the median; split after the run.
		hi := sort.Search(len(rows), func(i int) bool { return col[rows[i]] > medVal })
		if hi == len(rows) {
			// Single value in this dimension: cannot split here, try to make
			// a leaf anyway (degenerate data).
			nd.leaf = true
			nd.start, nd.end = offset, offset+len(rows)
			return nd
		}
		mid = hi
		medVal = col[rows[hi]]
	} else {
		mid = lo
	}
	nd.splitDim, nd.splitVal = dim, medVal

	leftHi := append([]int64(nil), boxHi...)
	leftHi[dim] = medVal - 1
	rightLo := append([]int64(nil), boxLo...)
	rightLo[dim] = medVal

	nd.left = x.build(rows[:mid], offset, depth+1, boxLo, leftHi)
	nd.right = x.build(rows[mid:], offset+mid, depth+1, rightLo, boxHi)
	return nd
}

func selectivityOrder(s *colstore.Store, workload []query.Query) []int {
	d := s.NumDims()
	type ds struct {
		dim int
		sel float64
	}
	sels := make([]ds, d)
	for i := range sels {
		sels[i] = ds{dim: i, sel: 1.0}
	}
	sum := make([]float64, d)
	cnt := make([]int, d)
	for _, q := range workload {
		for _, f := range q.Filters {
			sum[f.Dim] += index.DimSelectivity(s, q, f.Dim)
			cnt[f.Dim]++
		}
	}
	for i := 0; i < d; i++ {
		if cnt[i] > 0 {
			sels[i].sel = sum[i] / float64(cnt[i])
		}
	}
	sort.SliceStable(sels, func(a, b int) bool { return sels[a].sel < sels[b].sel })
	out := make([]int, d)
	for i, e := range sels {
		out[i] = e.dim
	}
	return out
}

// Name implements index.Index.
func (x *Index) Name() string { return "KDTree" }

// NumNodes returns the total node count.
func (x *Index) NumNodes() int { return x.numNodes }

// BuildStats returns the build timing split.
func (x *Index) BuildStats() index.BuildStats { return x.stats }

// Execute implements index.Index: Plan, then scan the plan.
func (x *Index) Execute(q query.Query) colstore.ScanResult {
	return x.Plan(q, index.Exec{}).Execute()
}

// Plan implements index.Index: traverse to intersecting leaves and plan
// their physical ranges, exact when a leaf's box is contained in the
// query rectangle; partially-covered leaves filter on the store's
// branch-free scan kernel. The tree is immutable after Build and
// traversal state is on the stack, so Plan is safe for concurrent
// callers sharing one index.
func (x *Index) Plan(q query.Query, _ index.Exec) index.Plan {
	p := index.NewRangePlan(x.store, q)
	x.visit(x.root, q, p)
	return p
}

func (x *Index) visit(nd *node, q query.Query, p *index.RangePlan) {
	if nd.leaf {
		p.Add(nd.start, nd.end, q.ContainsBox(nd.boxLo, nd.boxHi))
		return
	}
	f, ok := q.Filter(nd.splitDim)
	if !ok {
		x.visit(nd.left, q, p)
		x.visit(nd.right, q, p)
		return
	}
	if f.Lo < nd.splitVal {
		x.visit(nd.left, q, p)
	}
	if f.Hi >= nd.splitVal {
		x.visit(nd.right, q, p)
	}
}

// SizeBytes implements index.Index: every node stores split metadata plus
// its bounding box, mirroring what a pointer-based k-d tree keeps in memory.
func (x *Index) SizeBytes() uint64 {
	d := uint64(x.store.NumDims())
	// per node: 2 pointers + dim + val + range (≈40B) + box (2*d*8).
	return uint64(x.numNodes) * (40 + 16*d)
}
