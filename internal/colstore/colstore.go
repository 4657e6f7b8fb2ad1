// Package colstore implements the in-memory column store substrate every
// index in this repository is clustered over.
//
// The paper (§2, §6.1) evaluates all indexes on "a custom column store with
// one scan-time optimization": when a physical range is known to match the
// query filter exactly, per-value checks are skipped. This package provides
// that store: int64 columns, physical reordering by a permutation (clustered
// index builds), and range scans with COUNT/SUM aggregation.
package colstore

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/query"
)

// Store is a columnar table of int64 attributes. Columns share one length.
type Store struct {
	cols  [][]int64
	names []string
	// meta lazily holds each column's value span and, for a column of
	// at most 256 values, its byte image (codes.go); Gather into a reused
	// store clears the slots.
	meta []atomic.Pointer[colMeta]
}

// New creates a store with the given column names, all empty.
func New(names ...string) *Store {
	s := &Store{names: append([]string(nil), names...)}
	s.cols = make([][]int64, len(names))
	s.meta = make([]atomic.Pointer[colMeta], len(names))
	return s
}

// FromColumns wraps existing column slices. All columns must have equal
// length. The store takes ownership of the slices.
func FromColumns(cols [][]int64, names []string) (*Store, error) {
	if len(cols) == 0 {
		return nil, errors.New("colstore: no columns")
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			return nil, fmt.Errorf("colstore: column %d has length %d, want %d", i, len(c), n)
		}
	}
	if names == nil {
		names = make([]string, len(cols))
		for i := range names {
			names[i] = fmt.Sprintf("d%d", i)
		}
	}
	if len(names) != len(cols) {
		return nil, fmt.Errorf("colstore: %d names for %d columns", len(names), len(cols))
	}
	return &Store{
		cols:  cols,
		names: names,
		meta:  make([]atomic.Pointer[colMeta], len(cols)),
	}, nil
}

// FromRows builds a store from row-major data.
func FromRows(rows [][]int64, names []string) (*Store, error) {
	if len(rows) == 0 {
		return nil, errors.New("colstore: no rows")
	}
	d := len(rows[0])
	cols := make([][]int64, d)
	for j := range cols {
		cols[j] = make([]int64, len(rows))
	}
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("colstore: row %d has %d values, want %d", i, len(r), d)
		}
		for j, v := range r {
			cols[j][i] = v
		}
	}
	return FromColumns(cols, names)
}

// NumRows returns the number of rows.
func (s *Store) NumRows() int {
	if len(s.cols) == 0 {
		return 0
	}
	return len(s.cols[0])
}

// NumDims returns the number of columns.
func (s *Store) NumDims() int { return len(s.cols) }

// Names returns the column names.
func (s *Store) Names() []string { return s.names }

// Column returns the backing slice for dimension dim. Callers must not
// modify it.
func (s *Store) Column(dim int) []int64 { return s.cols[dim] }

// Value returns the value at (row, dim).
func (s *Store) Value(row, dim int) int64 { return s.cols[dim][row] }

// Row copies row i into dst (allocated if nil) and returns it.
func (s *Store) Row(i int, dst []int64) []int64 {
	if dst == nil {
		dst = make([]int64, len(s.cols))
	}
	for j, c := range s.cols {
		dst[j] = c[i]
	}
	return dst
}

// MinMax returns the minimum and maximum value of a dimension. It returns
// (0, 0) for an empty store.
func (s *Store) MinMax(dim int) (int64, int64) {
	c := s.cols[dim]
	if len(c) == 0 {
		return 0, 0
	}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Gather returns a store of s's rows at the given positions, in that order:
// given a permutation, it is s physically reordered, which is how the
// clustered indexes lay out their data. It writes into reuse's columns
// when reuse is a store of s's width (reuse may be nil), so a caller
// gathering again and again allocates once; reuse must not be read after
// the call except through the returned store, and its column spans and
// byte images, which describe its old rows, are dropped.
func (s *Store) Gather(rows []int, reuse *Store) *Store {
	out := reuse
	if out == nil || len(out.cols) != len(s.cols) {
		out = &Store{
			names: s.names,
			cols:  make([][]int64, len(s.cols)),
			meta:  make([]atomic.Pointer[colMeta], len(s.cols)),
		}
	}
	for j, c := range s.cols {
		dst := out.cols[j]
		if cap(dst) < len(rows) {
			dst = make([]int64, len(rows))
		}
		dst = dst[:len(rows)]
		for i, r := range rows {
			dst[i] = c[r]
		}
		out.cols[j] = dst
	}
	for i := range out.meta {
		out.meta[i].Store(nil)
	}
	return out
}

// Clone deep-copies the store, so an index build can reorder its own copy.
func (s *Store) Clone() *Store {
	out := &Store{names: append([]string(nil), s.names...)}
	out.cols = make([][]int64, len(s.cols))
	for j, c := range s.cols {
		out.cols[j] = append([]int64(nil), c...)
	}
	out.meta = make([]atomic.Pointer[colMeta], len(s.cols))
	return out
}

// ScanResult is the one result type of the repository: the (count, sum)
// pair a scan produced, its scan-volume accounting and — for a grouped
// query — one such pair per group key. A flat query's result has nil
// Groups; a grouped query's Count and Sum are the totals over its
// groups, so "grouped total == flat count" holds by construction.
type ScanResult struct {
	Count uint64
	Sum   int64
	// PointsScanned is the number of rows the scan touched (matching or
	// not); indexes report it for the cost-model features (§5.3.1).
	PointsScanned uint64
	// BytesTouched models the column bytes the scan moved: 8 bytes per
	// row for every filter column plus the aggregate column for SUM (an
	// exact COUNT range touches no column data at all). It is a planned
	// figure — deliberately independent of short-circuiting, dead-word
	// skipping and of the byte images, and therefore identical across the
	// SIMD, portable, and scalar tiers — so the bench harness can report
	// effective GB/s per shape and track the gap to STREAM bandwidth
	// across PRs. A coded scan (prepare) reads 1 byte per filter value,
	// not 8, while this figure stays the planned 8.
	BytesTouched uint64

	// GroupDim, Regime and Groups describe a grouped query's answer: the
	// dimension grouped by, the accumulation path that produced it (the
	// widest one, for a merged result), and one GroupAgg per distinct key
	// among matching rows, sorted ascending by key.
	GroupDim int
	Regime   GroupRegime
	Groups   []GroupAgg
}

// GroupedResult names a ScanResult that carries groups.
type GroupedResult = ScanResult

// Avg returns the mean of the aggregated dimension over matching rows
// (Sum/Count), or 0 when nothing matched. Only meaningful for SUM
// queries, whose results carry the sum alongside the match count.
func (r ScanResult) Avg() float64 {
	if r.Count == 0 {
		return 0
	}
	return float64(r.Sum) / float64(r.Count)
}

// prepared is a query prepared against one store (prepare): the choice,
// made once per query rather than per range, between the int64 filter
// kernels and the byte-image ones, with q's filters translated onto the
// images for the latter. ScanRanges prepares once for a whole plan;
// ScanRange prepares once for its one range.
type prepared struct {
	s    *Store
	q    query.Query
	kind scanKind
	// coded[:n] are q's filters on the byte images (kind scanCoded);
	// filters covering their column's whole span have dropped out.
	n     int
	coded [maxCodedFilters]codedFilter
}

type scanKind uint8

const (
	scanWide  scanKind = iota // filters on the int64 columns (or none)
	scanCoded                 // filters on the byte images, coded[:n]
	scanEmpty                 // an inverted filter, or one missing its column's span: no row matches
)

// prepare decides how q's non-exact ranges on s are scanned. When every
// filter (at least one, at most maxCodedFilters) is on a column whose
// values span at most 256, they are translated onto the columns' byte
// images, built here on first use; otherwise the scan reads the int64
// columns. Spans are learned once per column and store, and a query with
// one wide filter builds no image. The choice changes no result and no
// accounting.
func (s *Store) prepare(q query.Query) prepared {
	sc := prepared{s: s, q: q}
	// An inverted filter is an empty intersection: the conjunction
	// matches nothing, and the kernels' unsigned-width compare is exact
	// only for lo <= hi.
	for _, f := range q.Filters {
		if f.Lo > f.Hi {
			sc.kind = scanEmpty
			return sc
		}
	}
	if len(q.Filters) == 0 || len(q.Filters) > maxCodedFilters || s.NumRows() == 0 || !useCoded.Load() {
		return sc
	}
	for _, f := range q.Filters {
		if s.metaFor(f.Dim, false).width > maxCodedWidth {
			return sc
		}
	}
	sc.kind = scanCoded
	for _, f := range q.Filters {
		m := s.metaFor(f.Dim, true)
		lo, width, all, none := m.code(f)
		if none {
			sc.kind = scanEmpty
			return sc
		}
		if !all {
			sc.coded[sc.n] = codedFilter{m.codes, lo, width}
			sc.n++
		}
	}
	return sc
}

// filtered reports whether a non-exact range must be filter-checked:
// some filter neither drops out nor empties the query.
func (sc *prepared) filtered() bool {
	if sc.kind == scanCoded {
		return sc.n > 0
	}
	return sc.kind == scanWide && len(sc.q.Filters) > 0
}

// ScanRange scans physical rows [start, end) against q and accumulates the
// aggregation into res: ScanRanges of the one range, without the plan.
func (s *Store) ScanRange(q query.Query, start, end int, exact bool, res *ScanResult) {
	sc := s.prepare(q)
	sc.scanRange(start, end, exact, res)
}

// scanRange scans physical rows [start, end) of the prepared store
// against its query and accumulates the aggregation into res.
//
// If exact is true the caller guarantees every row in the range matches every
// filter, so per-value checks are skipped — the paper's scan-time
// optimization. For COUNT with exact ranges no column data is touched at all.
// Filtered (non-exact) ranges run on one branch-free fused kernel for any
// filter count (kernels.go), which compares every filter in registers and
// folds each group of rows at once — on the byte images when prepare
// coded the query, else on the int64 columns; ScanRangeScalar retains
// the row-at-a-time loop as the oracle.
func (sc *prepared) scanRange(start, end int, exact bool, res *ScanResult) {
	s, q := sc.s, sc.q
	if start < 0 {
		start = 0
	}
	if end > s.NumRows() {
		end = s.NumRows()
	}
	if start >= end {
		return
	}
	n := uint64(end - start)
	if exact {
		res.Count += n
		if q.Agg == query.Sum {
			col := s.cols[q.AggDim][start:end]
			var sum int64
			for _, v := range col {
				sum += v
			}
			res.Sum += sum
			res.PointsScanned += n
			res.BytesTouched += n * 8
		}
		return
	}
	res.PointsScanned += n
	res.BytesTouched += n * 8 * uint64(len(q.Filters)+sumCols(q))
	switch {
	case sc.kind == scanEmpty:
		return
	case sc.kind == scanCoded && sc.n > 0:
		s.scanCoded(sc.coded[:sc.n], q, start, end, res)
		return
	case sc.filtered():
		s.scanFiltered(q, start, end, res)
		return
	}
	res.Count += n
	if q.Agg == query.Sum {
		col := s.cols[q.AggDim][start:end]
		var sum int64
		for _, v := range col {
			sum += v
		}
		res.Sum += sum
	}
}

// Range is one physical row range of a plan: rows [Start, End), Exact
// when every row is known to match every filter (the paper's scan-time
// optimization). The coded range kernel reads a plan's ranges in place:
// Start at byte 0, End at 8, Exact at 16, 24 bytes apart.
type Range struct {
	Start, End int
	Exact      bool
}

// prefetchAhead is how many ranges ahead of the scan a plan scan
// prefetches. A plan is mostly short ranges (a median of ~20 rows), each
// a few lines per column, so scanning them one by one waits out one
// memory latency per range; issuing the fetches two ranges early
// overlaps those waits with the scans in between. Exact ranges are not
// prefetched: their scan reads no filter column.
const prefetchAhead = 2

// ScanRanges is the one way a plan is scanned: every index turns a query
// into physical ranges, and this scans them against q into acc when the
// query is grouped (acc non-nil), into res otherwise. The query is
// prepared once for all its ranges: whether its filters are compared on
// the columns' byte images or on their int64 values is one decision per
// query, not per range. The columns of the range prefetchAhead positions
// on are prefetched, and a coded flat query walks the whole plan in one
// kernel call (codedRanges), which does the same per range without
// returning to Go.
func (s *Store) ScanRanges(q query.Query, ranges []Range, res *ScanResult, acc *GroupAccumulator) {
	sc := s.prepare(q)
	if acc == nil && sc.scanRangesCoded(ranges, res) {
		return
	}
	for i, r := range ranges {
		if j := i + prefetchAhead; j < len(ranges) && !ranges[j].Exact {
			sc.prefetch(ranges[j].Start, ranges[j].End)
		}
		if acc != nil {
			sc.scanRangeGrouped(r.Start, r.End, r.Exact, acc)
		} else {
			sc.scanRange(r.Start, r.End, r.Exact, res)
		}
	}
}

// scanRangesCoded answers a coded flat query's ranges with one call of
// the range kernel, with scanRange's accounting. It scans nothing and
// reports false for any other query, or when a range is empty or not
// inside the store (scanRange clamps those).
func (sc *prepared) scanRangesCoded(ranges []Range, res *ScanResult) bool {
	if sc.kind != scanCoded || sc.n == 0 || len(ranges) == 0 {
		return false
	}
	s, q, rows := sc.s, sc.q, sc.s.NumRows()
	var points, bytes uint64
	for _, r := range ranges {
		if r.Start < 0 || r.End > rows || r.Start >= r.End {
			return false
		}
		n := uint64(r.End - r.Start)
		switch {
		case !r.Exact:
			points += n
			bytes += n * 8 * uint64(len(q.Filters)+sumCols(q))
		case q.Agg == query.Sum:
			points += n
			bytes += n * 8
		}
	}
	var agg []int64
	if q.Agg == query.Sum {
		agg = s.cols[q.AggDim]
	}
	count, sum := codedRanges(sc.coded[:sc.n], ranges, agg)
	res.Count += count
	res.Sum += sum
	res.PointsScanned += points
	res.BytesTouched += bytes
	return true
}

// ScanRangeScalar is the pre-kernel row-at-a-time implementation of
// ScanRange, retained verbatim as the oracle the kernels are
// property-tested and benchmarked against.
func (s *Store) ScanRangeScalar(q query.Query, start, end int, exact bool, res *ScanResult) {
	if start < 0 {
		start = 0
	}
	if end > s.NumRows() {
		end = s.NumRows()
	}
	if start >= end {
		return
	}
	n := uint64(end - start)
	if exact {
		res.Count += n
		if q.Agg == query.Sum {
			col := s.cols[q.AggDim]
			for i := start; i < end; i++ {
				res.Sum += col[i]
			}
			res.PointsScanned += n
			res.BytesTouched += n * 8
		}
		return
	}
	res.PointsScanned += n
	res.BytesTouched += n * 8 * uint64(len(q.Filters)+sumCols(q))

	// Column-at-a-time filtering: start with all rows live, narrow per filter.
	switch len(q.Filters) {
	case 0:
		res.Count += n
		if q.Agg == query.Sum {
			col := s.cols[q.AggDim]
			for i := start; i < end; i++ {
				res.Sum += col[i]
			}
		}
		return
	case 1:
		f := q.Filters[0]
		col := s.cols[f.Dim]
		if q.Agg == query.Count {
			for i := start; i < end; i++ {
				v := col[i]
				if v >= f.Lo && v <= f.Hi {
					res.Count++
				}
			}
			return
		}
		agg := s.cols[q.AggDim]
		for i := start; i < end; i++ {
			v := col[i]
			if v >= f.Lo && v <= f.Hi {
				res.Count++
				res.Sum += agg[i]
			}
		}
		return
	}

	for i := start; i < end; i++ {
		ok := true
		for _, f := range q.Filters {
			v := s.cols[f.Dim][i]
			if v < f.Lo || v > f.Hi {
				ok = false
				break
			}
		}
		if ok {
			res.Count++
			if q.Agg == query.Sum {
				res.Sum += s.cols[q.AggDim][i]
			}
		}
	}
}

// sumCols is the number of aggregate columns a query's scan reads beyond
// its filter columns: 1 for SUM, 0 for COUNT.
func sumCols(q query.Query) int {
	if q.Agg == query.Sum {
		return 1
	}
	return 0
}

// SizeBytes returns the memory footprint of the column data itself. Index
// sizes reported in experiments exclude this, matching the paper's
// "index size" metric.
func (s *Store) SizeBytes() uint64 {
	return uint64(s.NumRows()) * uint64(s.NumDims()) * 8
}
