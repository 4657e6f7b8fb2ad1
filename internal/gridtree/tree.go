package gridtree

import (
	"slices"
	"sort"

	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
)

// Config holds the Grid Tree settings callers vary; zero values take the
// defaults. The paper's other thresholds (§4.3) are the constants below.
type Config struct {
	// MergeEps is an additive merge tolerance as a fraction of the node's
	// query mass (default 0.005), letting zero-skew unique-value ranges
	// merge; see mergeCovering.
	MergeEps float64
	// MinPointsFloor is an absolute lower bound on minPointFrac (default
	// 1024 points); minQueriesFloor is its query-side twin. At the paper's
	// scale (184M–300M rows, 500+ queries) the 1% fractions dominate and
	// the floors never bind; at small scale they stop the tree from
	// shattering into statistically meaningless micro-regions.
	MinPointsFloor int
}

const (
	// TypeEps is the query-type clustering radius (DBSCAN eps over
	// selectivity embeddings, §4.3.1); the shift detector matches live
	// queries to types within the same radius.
	TypeEps = 0.2
	// histSampleValues caps the number of values used to lay out
	// skew-histogram bins per node and dimension.
	histSampleValues = 8192
	// histBins is the skew-histogram resolution.
	histBins = 128
	// mergeFactor is the covering-set merge tolerance: merge when the
	// combined skew is within 10% of the parts' sum.
	mergeFactor = 1.1
	// minSkewReduction rejects splits reducing skew by less than this
	// fraction of the node's query mass.
	minSkewReduction = 0.05
	// minPointFrac and minQueryFrac stop recursion when a node holds fewer
	// than this fraction of all points / queries.
	minPointFrac = 0.01
	minQueryFrac = 0.01
	// minQueriesFloor is the absolute lower bound on minQueryFrac.
	minQueriesFloor = 8
	// maxDepth caps recursion depth.
	maxDepth = 8
	// maxNodes caps the total node count, keeping the tree lightweight as
	// §4.2.2 intends even on patternless workloads (the paper's optimized
	// trees have 35–54 nodes).
	maxNodes = 64
)

func (c *Config) fill() {
	if c.MergeEps == 0 {
		c.MergeEps = 0.005
	}
	if c.MinPointsFloor == 0 {
		c.MinPointsFloor = 1024
	}
}

// Region is a leaf of the Grid Tree: a box of data space, the rows that
// fall in it, and the workload queries that intersect it.
type Region struct {
	// Lo and Hi are the region's inclusive per-dimension bounds.
	Lo, Hi []int64
	// Rows are the store row ids inside the region. Build-time only: they
	// index the store as it was handed to Build, and core.Build clears them
	// once it has reordered that store (nil on a built, derived or loaded
	// index, whose region extents live in the index's bounds).
	Rows []int
	// Queries are the sample-workload queries intersecting the region.
	Queries []query.Query
	// ID is the region's index in Tree.Regions (DFS order).
	ID int
}

// Node is an internal or leaf Grid Tree node. An internal node splitting on
// k values has k+1 children covering [lo, v1), [v1, v2), ..., [vk, hi]
// along SplitDim (§4.2.2).
type Node struct {
	SplitDim  int
	SplitVals []int64
	Children  []*Node
	Region    *Region // non-nil iff leaf
}

// Tree is a built Grid Tree.
type Tree struct {
	Root     *Node
	Regions  []*Region
	NumNodes int
	Depth    int
	NumTypes int
	mergeEps float64 // Config.MergeEps
	// committed counts nodes that exist or are promised to pending
	// recursion, enforcing maxNodes without DFS-order overshoot.
	committed int
}

// Build optimizes a Grid Tree for the dataset and sample workload (§4.3):
// cluster queries into types, then greedily split nodes on the (dimension,
// values) pair with the largest skew reduction found via skew trees.
func Build(st *colstore.Store, queries []query.Query, cfg Config) *Tree {
	cfg.fill()
	typed, numTypes := ClusterQueryTypes(index.NewSample(st, 2000), queries)

	n := st.NumRows()
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	d := st.NumDims()
	lo := make([]int64, d)
	hi := make([]int64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = st.MinMax(j)
	}

	t := &Tree{NumTypes: numTypes, mergeEps: cfg.MergeEps, committed: 1}
	minPoints := max(int(minPointFrac*float64(n)), cfg.MinPointsFloor)
	minQueries := max(int(minQueryFrac*float64(len(typed))), minQueriesFloor)
	t.Root = t.build(st, rows, typed, lo, hi, 1, minPoints, minQueries)
	return t
}

func (t *Tree) build(st *colstore.Store, rows []int, queries []query.Query, lo, hi []int64, depth, minPoints, minQueries int) *Node {
	t.NumNodes++
	if depth > t.Depth {
		t.Depth = depth
	}
	makeLeaf := func() *Node {
		r := &Region{
			Lo:      append([]int64(nil), lo...),
			Hi:      append([]int64(nil), hi...),
			Rows:    rows,
			Queries: queries,
			ID:      len(t.Regions),
		}
		t.Regions = append(t.Regions, r)
		return &Node{Region: r}
	}

	if depth >= maxDepth || t.committed >= maxNodes ||
		len(rows) <= minPoints || len(queries) <= minQueries {
		return makeLeaf()
	}

	// Find the best split dimension: the one whose optimal covering set
	// achieves the largest skew reduction (§4.3.2).
	best := splitPlan{reduction: -1}
	for dim := 0; dim < st.NumDims(); dim++ {
		if hi[dim] <= lo[dim] {
			continue
		}
		vals := sampleValues(st.Column(dim), rows, histSampleValues)
		plan := planSplit(vals, dim, lo[dim], hi[dim], queries, t.NumTypes, t.mergeEps)
		if plan.reduction > best.reduction {
			best = plan
		}
	}
	// Reject when the reduction is below 5% of the node's query mass.
	threshold := minSkewReduction * float64(len(queries))
	if len(best.values) == 0 || best.reduction < threshold {
		return makeLeaf()
	}

	// Clean split values: strictly inside (lo, hi], sorted, deduped.
	vals := cleanSplitVals(best.values, lo[best.dim], hi[best.dim])
	if len(vals) == 0 {
		return makeLeaf()
	}
	if t.committed+len(vals)+1 > maxNodes {
		return makeLeaf()
	}
	t.committed += len(vals) + 1

	nd := &Node{SplitDim: best.dim, SplitVals: vals}
	nd.Children = make([]*Node, len(vals)+1)

	// Partition rows into children: child i covers [prev, vals[i]) with
	// prev = lo for i = 0, and the last child covers [vals[k-1], hi].
	col := st.Column(best.dim)
	buckets := make([][]int, len(vals)+1)
	for _, r := range rows {
		v := col[r]
		i := sort.Search(len(vals), func(i int) bool { return vals[i] > v })
		buckets[i] = append(buckets[i], r)
	}

	for i := range nd.Children {
		clo := append([]int64(nil), lo...)
		chi := append([]int64(nil), hi...)
		if i > 0 {
			clo[best.dim] = vals[i-1]
		}
		if i < len(vals) {
			chi[best.dim] = vals[i] - 1
		}
		var cq []query.Query
		for _, q := range queries {
			if queryIntersects(q, best.dim, clo[best.dim], chi[best.dim]) {
				cq = append(cq, q)
			}
		}
		nd.Children[i] = t.build(st, buckets[i], cq, clo, chi, depth+1, minPoints, minQueries)
	}
	return nd
}

func cleanSplitVals(vals []int64, lo, hi int64) []int64 {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	out := sorted[:0]
	for _, v := range sorted {
		if v <= lo || v > hi {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

func queryIntersects(q query.Query, dim int, lo, hi int64) bool {
	f, ok := q.Filter(dim)
	if !ok {
		return true
	}
	return f.Hi >= lo && f.Lo <= hi
}

// sampleValues gathers up to max values of col at rows (strided).
func sampleValues(col []int64, rows []int, max int) []int64 {
	if len(rows) <= max {
		return gatherRows(col, rows)
	}
	out := make([]int64, max)
	stride := len(rows) / max
	for i := range out {
		out[i] = col[rows[i*stride]]
	}
	return out
}

func gatherRows(col []int64, rows []int) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = col[r]
	}
	return out
}

// FindRegions appends to dst every leaf region intersecting q and returns
// the result (§4.2.2 query processing).
func (t *Tree) FindRegions(q query.Query, dst []*Region) []*Region {
	return findRegions(t.Root, q, dst)
}

func findRegions(nd *Node, q query.Query, dst []*Region) []*Region {
	if nd.Region != nil {
		return append(dst, nd.Region)
	}
	f, ok := q.Filter(nd.SplitDim)
	if !ok {
		for _, c := range nd.Children {
			dst = findRegions(c, q, dst)
		}
		return dst
	}
	// Children i covers [v_{i-1}, v_i): find the child range intersecting
	// [f.Lo, f.Hi].
	first := sort.Search(len(nd.SplitVals), func(i int) bool { return nd.SplitVals[i] > f.Lo })
	last := sort.Search(len(nd.SplitVals), func(i int) bool { return nd.SplitVals[i] > f.Hi })
	for i := first; i <= last; i++ {
		dst = findRegions(nd.Children[i], q, dst)
	}
	return dst
}

// SizeBytes reports the tree's memory footprint: per internal node the
// split dim, values, and child pointers; regions' bounds.
func (t *Tree) SizeBytes() uint64 {
	var size uint64
	var walk func(nd *Node)
	walk = func(nd *Node) {
		if nd.Region != nil {
			size += uint64(len(nd.Region.Lo)) * 16
			return
		}
		size += 8 + uint64(len(nd.SplitVals))*8 + uint64(len(nd.Children))*8
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return size
}
