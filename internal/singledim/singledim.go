// Package singledim implements the clustered single-dimensional index
// baseline (§6.1): points are sorted by the most selective dimension in the
// query workload; a query that filters this dimension locates its endpoints
// by binary search, anything else falls back to a full scan.
package singledim

import (
	"sort"
	"time"

	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
)

// Index is a clustered single-dimensional index.
type Index struct {
	store   *colstore.Store
	sortDim int
	stats   index.BuildStats
}

// Build sorts a copy of the store by the workload's most selective filtered
// dimension (or byDim if >= 0), and returns the index.
func Build(s *colstore.Store, workload []query.Query, byDim int) *Index {
	optStart := time.Now()
	dim := byDim
	if dim < 0 {
		dim = MostSelectiveDim(s, workload)
	}
	opt := time.Since(optStart).Seconds()

	sortStart := time.Now()
	col := s.Column(dim)
	perm := make([]int, s.NumRows())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return col[perm[a]] < col[perm[b]] })
	return &Index{
		store:   s.Gather(perm, nil),
		sortDim: dim,
		stats: index.BuildStats{
			SortSeconds:     time.Since(sortStart).Seconds(),
			OptimizeSeconds: opt,
		},
	}
}

// MostSelectiveDim returns the dimension with the lowest average per-filter
// selectivity across the workload, estimated on a sample of rows.
func MostSelectiveDim(s *colstore.Store, workload []query.Query) int {
	d := s.NumDims()
	sum := make([]float64, d)
	cnt := make([]int, d)
	sample := index.NewSample(s, 2000)
	for _, q := range workload {
		for _, f := range q.Filters {
			sum[f.Dim] += sample.Selectivity(f)
			cnt[f.Dim]++
		}
	}
	best, bestSel := 0, 2.0
	for i := 0; i < d; i++ {
		if cnt[i] == 0 {
			continue
		}
		sel := sum[i] / float64(cnt[i])
		if sel < bestSel {
			best, bestSel = i, sel
		}
	}
	return best
}

// Name implements index.Index.
func (x *Index) Name() string { return "SingleDim" }

// SortDim returns the clustered dimension.
func (x *Index) SortDim() int { return x.sortDim }

// BuildStats returns the build timing split.
func (x *Index) BuildStats() index.BuildStats { return x.stats }

// Execute implements index.Index. Queries filtering the sort dimension
// binary-search their physical range; others scan the whole table on the
// store's branch-free scan kernel, which is what keeps this baseline's
// fallback path honest at scale. The sorted store is immutable after
// Build, so Execute is safe for concurrent callers sharing one index.
func (x *Index) Execute(q query.Query) colstore.ScanResult {
	var res colstore.ScanResult
	n := x.store.NumRows()
	f, ok := q.Filter(x.sortDim)
	if !ok {
		x.store.ScanRange(q, 0, n, false, &res)
		return res
	}
	col := x.store.Column(x.sortDim)
	start := sort.Search(n, func(i int) bool { return col[i] >= f.Lo })
	end := sort.Search(n, func(i int) bool { return col[i] > f.Hi })
	// If the sort dimension is the only filter, the range is exact.
	exact := len(q.Filters) == 1
	x.store.ScanRange(q, start, end, exact, &res)
	return res
}

// SizeBytes implements index.Index: one int for the sort dimension; the
// sorted data itself is the clustered layout, not index structure.
func (x *Index) SizeBytes() uint64 { return 8 }
