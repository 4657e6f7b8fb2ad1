// Package index defines the interface every clustered multi-dimensional
// index in this repository implements, plus the FullScan baseline that
// serves as ground truth in tests.
//
// All indexes are *clustered* (§2): building one physically reorders the
// column store, and queries resolve to contiguous physical ranges that the
// store scans. Every index answers through a Plan: the ranges first,
// then one colstore.Store.ScanRanges call over them.
package index

import (
	"slices"
	"sync"

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
	// Plan plans q without scanning it; Execute(q) is
	// Plan(q, Exec{}).Execute(). A plan is what admission prices. An
	// index that keeps no trace of its own (the baselines) leaves
	// x.Trace unfilled.
	Plan(q query.Query, x Exec) Plan
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

// Plan is one query planned by an Index (Index.Plan): the routing and
// range planning are done, the epoch(s) it answers from are pinned, and
// nothing is scanned or recorded yet. Admission prices it, then either
// executes it or releases it; Execute(q) is exactly
// Plan(q, Exec{}).Execute(), and a pipeline's ExecuteWith(q, x) is
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

// RangePlan is the plan of an index over one store: the physical ranges
// a query reads, which Execute scans with one colstore.Store.ScanRanges
// call, flat or grouped into the plan's pooled accumulator. The
// baselines fill Ranges as they walk their structure; core.Tsunami plans
// its own ranges and prices them with the same Price.
type RangePlan struct {
	store  *colstore.Store
	q      query.Query
	Ranges []colstore.Range
	acc    colstore.GroupAccumulator
}

var rangePlans = sync.Pool{New: func() any { return new(RangePlan) }}

// NewRangePlan returns an empty plan of q over s, from a pool.
func NewRangePlan(s *colstore.Store, q query.Query) *RangePlan {
	p := rangePlans.Get().(*RangePlan)
	p.store, p.q, p.Ranges = s, q, p.Ranges[:0]
	return p
}

// Add plans rows [start, end), exact when every row is known to match
// every filter (the paper's scan-time optimization). An empty range is
// not planned.
func (p *RangePlan) Add(start, end int, exact bool) {
	if start < end {
		p.Ranges = append(p.Ranges, colstore.Range{Start: start, End: end, Exact: exact})
	}
}

// Cost implements Plan: Price of the planned ranges.
func (p *RangePlan) Cost() (rows, bytes uint64) { return Price(p.q, p.Ranges, 0) }

// Execute implements Plan: it scans the ranges and releases the plan.
func (p *RangePlan) Execute() colstore.ScanResult {
	defer p.Release()
	var res colstore.ScanResult
	if !p.q.Grouped() {
		p.store.ScanRanges(p.q, p.Ranges, &res, nil)
		return res
	}
	p.acc.Reset(p.q, p.store)
	p.store.ScanRanges(p.q, p.Ranges, nil, &p.acc)
	return p.acc.Result()
}

// Release implements Plan: the plan goes back to the pool.
func (p *RangePlan) Release() {
	p.store, p.q = nil, query.Query{}
	rangePlans.Put(p)
}

// Price is the one cost formula of every plan (see Plan.Cost): the rows
// of ranges plus extra rows scanned beside them (a Tsunami plan's
// buffered inserts), times 8 bytes per column read — each filter column,
// the SUM column, and a grouped query's key column as one extra stream:
// ScanResult's PointsScanned and BytesTouched as bounds, since an exact
// range reads fewer columns.
func Price(q query.Query, ranges []colstore.Range, extra uint64) (rows, bytes uint64) {
	rows = extra
	for _, r := range ranges {
		rows += uint64(r.End - r.Start)
	}
	cols := uint64(len(q.Filters))
	if q.Agg == query.Sum {
		cols++
	}
	if q.Grouped() {
		cols++
	}
	return rows, rows * 8 * cols
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
	return f.Plan(q, Exec{}).Execute()
}

// Plan implements Index: one range, the whole table.
func (f *FullScan) Plan(q query.Query, _ Exec) Plan {
	p := NewRangePlan(f.store, q)
	p.Add(0, f.store.NumRows(), false)
	return p
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
