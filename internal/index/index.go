// Package index defines the interface every clustered multi-dimensional
// index in this repository implements, plus the FullScan baseline that
// serves as ground truth in tests.
//
// All indexes are *clustered* (§2): building one physically reorders the
// column store, and queries resolve to contiguous physical ranges that the
// store scans.
package index

import (
	"slices"

	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/query"
)

// Index is a clustered multi-dimensional index over a column store.
type Index interface {
	// Name identifies the index in experiment output.
	Name() string
	// Execute runs the query and returns the aggregate plus scan statistics.
	//
	// Concurrency contract: a built index is immutable on the read path.
	// Execute must be safe for any number of concurrent callers against
	// the same index value, with no per-goroutine cloning; implementations
	// keep per-query state on the stack or in pooled execution contexts.
	// Inserts, merges and re-optimization never write a built index: they
	// derive a successor, and the serving stores publish it.
	Execute(q query.Query) colstore.ScanResult
	// SizeBytes reports the index structure's memory footprint, excluding
	// the column data itself (the paper's "index size" metric, Fig 8).
	SizeBytes() uint64
}

// Exec says how one query is to run through an execution pipeline
// (core.Tsunami, live.Store and sharded.Store each implement one
// ExecuteWith(q, Exec)); what the query computes — flat or grouped,
// COUNT or SUM — is the query's own business. Every run executes inline
// on the goroutine that asked for it; the zero value runs untraced.
type Exec struct {
	// Trace, when non-nil, is filled with the run's explain-analyze
	// record: the same code executes and stamps stage times as it goes.
	// A traced run always executes (it bypasses result caches); the
	// answer is identical to an untraced run's.
	Trace *obs.QueryTrace
}

// Plan is one query planned through an execution pipeline (core.Tsunami,
// live.Store and sharded.Store each return one from Plan(q, Exec)): the
// routing and range planning are done, the epoch(s) it answers from are
// pinned, and nothing is scanned or recorded yet. Admission prices it,
// then either executes it or releases it; ExecuteWith(q, x) is exactly
// Plan(q, x).Execute(). A plan is not safe for concurrent use, and
// exactly one of Execute and Release is called on it, once.
type Plan interface {
	// Cost is the plan's scan price, computed without scanning: the rows
	// its execution visits and the column bytes those rows move, 8 per
	// row for each column read (an upper bound: exact ranges read less).
	// An answer the plan found in a result cache costs (0, 0).
	Cost() (rows, bytes uint64)
	// Execute runs the plan on the calling goroutine, traced if the Exec
	// it was made with says so, records the query at every layer, and
	// releases the plan.
	Execute() colstore.ScanResult
	// Release gives back a plan that will not execute. A released plan
	// leaves no trace: no counter, cache entry or statistic moves.
	Release()
}

// BuildStats records how long an index build spent in its two phases,
// reported by Fig 9b (solid bars = sorting, hatched = optimization).
type BuildStats struct {
	SortSeconds     float64
	OptimizeSeconds float64
}

// FullScan answers queries by scanning the entire table. It is the ground
// truth every other index is validated against, and the degenerate index
// with zero size.
type FullScan struct {
	store *colstore.Store
}

// NewFullScan wraps a store (not copied; FullScan never reorders).
func NewFullScan(s *colstore.Store) *FullScan { return &FullScan{store: s} }

// Name implements Index.
func (f *FullScan) Name() string { return "FullScan" }

// Execute implements Index by scanning every row. Stateless, so safe for
// concurrent callers.
func (f *FullScan) Execute(q query.Query) colstore.ScanResult {
	var res colstore.ScanResult
	f.store.ScanRange(q, 0, f.store.NumRows(), false, &res)
	return res
}

// SizeBytes implements Index; a full scan needs no structure.
func (f *FullScan) SizeBytes() uint64 { return 0 }

// Selectivity returns the fraction of rows matching q, computed exactly by
// full scan. Workload generators and tuners use it.
func Selectivity(s *colstore.Store, q query.Query) float64 {
	var res colstore.ScanResult
	cq := q
	cq.Agg = query.Count
	s.ScanRange(cq, 0, s.NumRows(), false, &res)
	if s.NumRows() == 0 {
		return 0
	}
	return float64(res.Count) / float64(s.NumRows())
}

// DimSelectivity returns the fraction of rows matching only the filter on
// one dimension of q (1.0 when the dim is unfiltered). The count runs on
// the store's fused scan kernel.
func DimSelectivity(s *colstore.Store, q query.Query, dim int) float64 {
	f, ok := q.Filter(dim)
	if !ok {
		return 1.0
	}
	if s.NumRows() == 0 {
		return 0
	}
	var res colstore.ScanResult
	s.ScanRange(query.NewCount(f), 0, s.NumRows(), false, &res)
	return float64(res.Count) / float64(s.NumRows())
}

// Sample is a strided row sample of a table — every row when the table
// has at most want rows, else want rows n/want apart — with each
// dimension's sampled values sorted once, so a filter's selectivity on it
// is two binary searches instead of a pass over the sampled rows. The
// query-type clustering, the shift detector's fingerprints and the
// baselines' dimension ordering all estimate selectivity on one. It copies
// the values it needs and keeps no reference to the table.
type Sample struct {
	cols [][]int64 // per dimension, the sampled values in ascending order
	n    int
}

// NewSample draws the strided sample of up to want rows of s.
func NewSample(s *colstore.Store, want int) *Sample {
	n := s.NumRows()
	want = max(0, min(want, n))
	stride := 1
	if want > 0 {
		stride = n / want
	}
	sm := &Sample{cols: make([][]int64, s.NumDims()), n: want}
	for d := range sm.cols {
		col := s.Column(d)
		vals := make([]int64, want)
		for i := range vals {
			vals[i] = col[i*stride]
		}
		slices.Sort(vals)
		sm.cols[d] = vals
	}
	return sm
}

// Selectivity returns the fraction of the sampled rows that match f (1 on
// an empty sample): the count of sorted values in [f.Lo, f.Hi] over the
// sample size.
func (sm *Sample) Selectivity(f query.Filter) float64 {
	if sm.n == 0 {
		return 1
	}
	if f.Lo > f.Hi {
		return 0
	}
	col := sm.cols[f.Dim]
	lo, _ := slices.BinarySearch(col, f.Lo)
	hi := len(col)
	if f.Hi != query.NoHi {
		hi, _ = slices.BinarySearch(col, f.Hi+1)
	}
	return float64(hi-lo) / float64(sm.n)
}
