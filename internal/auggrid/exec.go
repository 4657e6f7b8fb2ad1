package auggrid

import (
	"math"

	"repro/internal/query"
)

// ExecStats reports the cost-model features of a query's plan (§5.3.1):
// the number of physical cell ranges it visits (each a lookup plus likely
// cache miss) and the number of cells those ranges cover.
type ExecStats struct {
	CellRanges   int
	CellsVisited int
}

// run is a maximal range of consecutive cell ids scheduled for scanning.
type run struct {
	start, end int // inclusive cell ids
	exact      bool
}

// PhysRange is one contiguous physical row range [Start, End) a query's
// execution scans, with the exactness flag colstore.ScanRange consumes.
// Ranges are absolute positions in the finalized store.
type PhysRange struct {
	Start, End int
	Exact      bool
}

// PlanRanges appends to dst the physical row ranges a query's execution
// scans for q and returns the extended slice plus the traversal stats.
// Scanning the returned ranges with ScanRanges answers q. A built Grid is
// immutable; all per-query state lives in ctx, so any number of goroutines
// may plan concurrently against the same Grid as long as each uses its
// own ExecContext.
func (g *Grid) PlanRanges(q query.Query, ctx *ExecContext, dst []PhysRange) ([]PhysRange, ExecStats) {
	var st ExecStats
	return g.planInto(q, ctx, dst, &st), st
}

// planInto computes the ranges a query scans: the cell runs that intersect
// the query, each refined cell by cell when the query filters the sort dim,
// then the outlier buffer. The walk emits runs in ascending cell order and
// refinement keeps it, so the ranges ascend and never overlap.
func (g *Grid) planInto(q query.Query, ctx *ExecContext, dst []PhysRange, st *ExecStats) []PhysRange {
	if g.n == 0 {
		return dst
	}

	effLo, effHi, ok := g.effectiveFilters(q, ctx)
	if !ok {
		// No INLIER can match, but the outlier buffer lies outside the
		// mappings' error bounds: scan it regardless.
		return g.planOutliers(dst, st)
	}

	runs := mergeRuns(g.enumerate(q, effLo, effHi, ctx))
	if sd := g.layout.SortDim; sd >= 0 && (effLo[sd] != query.NoLo || effHi[sd] != query.NoHi) {
		dst = g.refine(runs, g.store.Column(sd), effLo[sd], effHi[sd], dst, st)
		return g.planOutliers(dst, st)
	}
	base, offsets := g.start, g.offsets
	for _, r := range runs {
		s, e := offsets[r.start], offsets[r.end+1]
		if s >= e {
			continue
		}
		dst = append(dst, PhysRange{Start: base + int(s), End: base + int(e), Exact: r.exact})
		st.CellRanges++
		st.CellsVisited += r.end - r.start + 1
	}
	return g.planOutliers(dst, st)
}

// refine appends, for each non-empty cell of runs, the rows whose sort
// value lies in [lo, hi] (§2.2 refinement). A cell's rows are sorted by the
// sort dim, so its first and last rows are its minimum and maximum: a cell
// wholly outside the filter costs those two loads and no search, a cell
// wholly inside is taken whole, and only a side the filter cuts is
// searched. Positions are relative to the grid's start until emitted.
func (g *Grid) refine(runs []run, col []int64, lo, hi int64, dst []PhysRange, st *ExecStats) []PhysRange {
	base, offsets := g.start, g.offsets
	col = col[base : base+g.n]
	for _, r := range runs {
		for c := r.start; c <= r.end; c++ {
			s, e := int(offsets[c]), int(offsets[c+1])
			if s >= e || col[s] > hi || col[e-1] < lo {
				continue
			}
			if col[s] < lo {
				s = searchGT(col, s, e, lo-1)
			}
			if col[e-1] > hi {
				e = searchGT(col, s, e, hi)
			}
			if s == e {
				continue // the filter falls between two of the cell's values
			}
			dst = append(dst, PhysRange{Start: base + s, End: base + e, Exact: r.exact})
			st.CellRanges++
			st.CellsVisited++
		}
	}
	return dst
}

// planOutliers appends the rows diverted by robust functional mappings
// (§8); they live after the last cell and must be checked by every query.
func (g *Grid) planOutliers(dst []PhysRange, st *ExecStats) []PhysRange {
	if g.nOutliers == 0 {
		return dst
	}
	s := g.start + int(g.offsets[len(g.offsets)-1])
	st.CellRanges++
	return append(dst, PhysRange{Start: s, End: s + g.nOutliers})
}

// effectiveFilters returns per-dim bounds every matching inlier satisfies:
// the query's filters, intersected per dim (a query may filter one dim more
// than once), then the ranges induced by functional mappings (§5.2.1): a
// filter over a mapped dimension is transformed into a filter over the
// target dimension and intersected with any existing filter there. Returns
// ok=false when an intersection is provably empty, so every bound it
// returns has lo <= hi.
func (g *Grid) effectiveFilters(q query.Query, ctx *ExecContext) ([]int64, []int64, bool) {
	d := len(g.layout.Skeleton)
	lo, hi := ctx.effBounds(d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = query.NoLo, query.NoHi
	}
	for _, f := range q.Filters {
		lo[f.Dim] = max(lo[f.Dim], f.Lo)
		hi[f.Dim] = min(hi[f.Dim], f.Hi)
		if lo[f.Dim] > hi[f.Dim] {
			return nil, nil, false
		}
	}
	for j, strat := range g.layout.Skeleton {
		if strat.Kind != Mapped {
			continue
		}
		if lo[j] == query.NoLo && hi[j] == query.NoHi {
			continue // mapped dim unfiltered: nothing to transform
		}
		flo, fhi := lo[j], hi[j]
		if flo < g.dimLo[j] {
			flo = g.dimLo[j]
		}
		if fhi > g.dimHi[j] {
			fhi = g.dimHi[j]
		}
		if flo > fhi {
			return nil, nil, false // filter excludes the whole domain
		}
		blo, bhi := g.mappings[j].Bounds(float64(flo), float64(fhi))
		t := strat.Other
		tlo, thi := toInt64(math.Floor(blo)), toInt64(math.Ceil(bhi))
		if tlo > lo[t] {
			lo[t] = tlo
		}
		if thi < hi[t] {
			hi[t] = thi
		}
		if lo[t] > hi[t] {
			return nil, nil, false
		}
	}
	return lo, hi, true
}

// toInt64 converts an integral float to int64, saturating: a mapping over
// huge values can predict past the int64 range, and converting such a
// float is not defined (amd64 gives MinInt64 either way, which would empty
// the range).
func toInt64(f float64) int64 {
	switch {
	case f >= math.MaxInt64: // float64(MaxInt64) is 2^63
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

// dimRange is one grid position the walk visits: its partition index range
// plus the endpoint exactness needed to split runs (§5.3.1 counts the
// resulting ranges). A filtered conditional dim whose base the walk visits
// has a range that depends on the base's partition, so the walk computes it
// from that partition's boundaries.
type dimRange struct {
	pos, stride      int // position in gridDims, and its cell-id stride
	a, b             int
	exactLo, exactHi bool // endpoint partitions contained in the filter
	conditional      bool
	dim, p           int // conditional only: the dim and its partition count
	basePos          int // conditional only: the base's position in gridDims
	lo, hi           int64
}

// enumerate produces the cell-id runs intersecting the query, in ascending
// cell order.
//
// Grid dims are walked in stride order (gridDims is topological: bases
// before dependents). A conditional dim whose base has one partition has
// one set of boundaries, so its range is computed once, as an independent
// dim's is. A position with one partition has cell index 0 in every cell,
// so the walk skips it unless its range depends on a walked base: a filter
// there can only clear exactness, which is folded into baseExact once.
// Trailing positions the query leaves unconstrained form a suffix whose
// cells are contiguous per prefix combination, so the walk stops at the
// last filtered position e and emits runs of strides[e] cells at a time; a
// conditional dim comes after its base, so the walk has fixed the base's
// partition by the time it needs it. This keeps enumeration cost
// proportional to the number of constrained combinations, not total
// intersecting cells.
func (g *Grid) enumerate(q query.Query, effLo, effHi []int64, ctx *ExecContext) []run {
	nd := len(g.gridDims)
	ctx.runs = ctx.runs[:0]
	if nd == 0 {
		// No grid dims at all: one run over the single cell.
		return append(ctx.runs, run{start: 0, end: 0, exact: len(q.Filters) == 0})
	}

	// A filter over a mapped dim makes every cell inexact (cell geometry
	// says nothing about the mapped value, so the scan re-checks it); the
	// sort dim does not gate exactness because refinement restores it
	// during the scan.
	baseExact := true
	for _, f := range q.Filters {
		if g.layout.Skeleton[f.Dim].Kind == Mapped {
			baseExact = false
		}
	}

	ranges, idx := ctx.dimScratch(nd)
	e := -1
	for k, j := range g.gridDims {
		p := g.layout.P[j]
		r := dimRange{pos: k, stride: g.strides[k], b: p - 1, exactLo: true, exactHi: true}
		if effLo[j] == query.NoLo && effHi[j] == query.NoHi {
			if p > 1 {
				ranges = append(ranges, r) // walked over its full range
			}
			continue
		}
		switch strat := g.layout.Skeleton[j]; {
		case strat.Kind == Conditional && g.layout.P[strat.Other] > 1:
			r.conditional, r.dim, r.p, r.basePos = true, j, p, g.posOf[strat.Other]
			r.lo, r.hi = effLo[j], effHi[j]
		case strat.Kind == Conditional:
			r.a, r.b, r.exactLo, r.exactHi = boundsRange(g.condBounds[j][0], p, effLo[j], effHi[j])
		default:
			r.a, r.b, r.exactLo, r.exactHi = boundsRange(g.bounds[j], p, effLo[j], effHi[j])
		}
		if p == 1 && !r.conditional {
			baseExact = baseExact && r.exactLo && r.exactHi
			continue
		}
		e = len(ranges)
		ranges = append(ranges, r)
	}
	if e < 0 {
		// No filtered position left to walk: one run over everything.
		return append(ctx.runs, run{start: 0, end: len(g.offsets) - 2, exact: baseExact})
	}

	g.walk(ctx, ranges[:e+1], idx, 0, 0, baseExact)
	return ctx.runs
}

// walk recursively enumerates ranges[k:], whose last entry is the emission
// position: it emits runs covering its partition range times the
// unconstrained suffix. Each position's partitions go in ascending order,
// so the runs come out in ascending cell order.
func (g *Grid) walk(ctx *ExecContext, ranges []dimRange, idx []int, k, cellBase int, exact bool) {
	r := &ranges[k]
	a, b, exLo, exHi := r.a, r.b, r.exactLo, r.exactHi
	if r.conditional {
		a, b, exLo, exHi = boundsRange(g.condBounds[r.dim][idx[r.basePos]], r.p, r.lo, r.hi)
	}
	if k == len(ranges)-1 {
		ctx.emitRuns(cellBase, r.stride, a, b, exact, exLo, exHi)
		return
	}
	for i := a; i <= b; i++ {
		idx[r.pos] = i
		ex := exact && (i != a || exLo) && (i != b || exHi)
		g.walk(ctx, ranges, idx, k+1, cellBase+i*r.stride, ex)
	}
}

// emitRuns emits the (up to three) runs covering partitions [a, b] at the
// emission position: each partition spans stride consecutive cells (the
// unconstrained suffix), and inexact endpoint partitions are split off so
// interior cells can use the exact-range scan optimization.
func (ctx *ExecContext) emitRuns(base, stride, a, b int, exact, exLo, exHi bool) {
	if !exLo {
		ctx.runs = append(ctx.runs, run{start: base + a*stride, end: base + (a+1)*stride - 1})
		a++
	}
	split := !exHi && a <= b
	if split {
		b--
	}
	if a <= b {
		ctx.runs = append(ctx.runs, run{start: base + a*stride, end: base + (b+1)*stride - 1, exact: exact})
	}
	if split {
		ctx.runs = append(ctx.runs, run{start: base + (b+1)*stride, end: base + (b+2)*stride - 1})
	}
}

// boundsRange computes the partition index range [a, b] intersecting value
// range [lo, hi] (lo <= hi) under boundary array bounds (p+1 long), with
// endpoint exactness: whether the endpoint partitions' slabs are contained
// in [lo, hi]. Partitions before a hold only values below lo, so the
// search for b starts at a, and b >= a.
func boundsRange(bounds []int64, p int, lo, hi int64) (int, int, bool, bool) {
	a := clampPart(searchGT(bounds, 0, len(bounds), lo)-1, p)
	b := clampPart(searchGT(bounds, a, len(bounds), hi)-1, p)
	exLo := lo <= bounds[a]
	exHi := hi >= bounds[b+1]-1
	if b == p-1 && bounds[p] == math.MaxInt64 {
		// The top boundary saturated (cdfmodel.Above): the last partition
		// may hold MaxInt64 itself.
		exHi = hi == math.MaxInt64
	}
	return a, b, exLo, exHi
}

// mergeRuns merges ascending runs whose cell ranges are adjacent and share
// the same exactness.
func mergeRuns(runs []run) []run {
	out := runs[:1]
	for _, r := range runs[1:] {
		last := &out[len(out)-1]
		if r.start == last.end+1 && r.exact == last.exact {
			last.end = r.end
			continue
		}
		out = append(out, r)
	}
	return out
}
