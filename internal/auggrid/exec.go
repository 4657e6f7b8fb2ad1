package auggrid

import (
	"math"
	"sort"

	"repro/internal/colstore"
	"repro/internal/query"
)

// ExecStats reports the cost-model features observed while executing a
// query (§5.3.1): the number of physical cell ranges visited (each a lookup
// plus likely cache miss) and the number of cells those ranges covered.
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
// Ranges are absolute positions in the finalized store, so callers may
// scan them directly — in any order, or split across goroutines — and
// merge the partial ScanResults.
type PhysRange struct {
	Start, End int
	Exact      bool
}

// Execute answers q against the grid's physical range. A built Grid is
// immutable; all per-query state lives in ctx, so any number of goroutines
// may Execute concurrently against the same Grid as long as each uses its
// own ExecContext. A nil ctx borrows one from the package pool.
func (g *Grid) Execute(q query.Query, ctx *ExecContext) (colstore.ScanResult, ExecStats) {
	if ctx == nil {
		ctx = GetExecContext()
		defer PutExecContext(ctx)
	}
	var res colstore.ScanResult
	var st ExecStats
	ctx.phys = g.planInto(q, ctx, ctx.phys[:0], &st)
	for _, pr := range ctx.phys {
		g.store.ScanRange(q, pr.Start, pr.End, pr.Exact, &res)
	}
	return res, st
}

// PlanRanges appends to dst the physical row ranges Execute would scan for
// q and returns the extended slice plus the traversal stats. Scanning every
// returned range with q and merging the results is exactly Execute; the
// parallel executor uses this to split one grid's scan work across workers
// at sub-region granularity.
func (g *Grid) PlanRanges(q query.Query, ctx *ExecContext, dst []PhysRange) ([]PhysRange, ExecStats) {
	if ctx == nil {
		ctx = GetExecContext()
		defer PutExecContext(ctx)
	}
	var st ExecStats
	return g.planInto(q, ctx, dst, &st), st
}

// planInto computes the ranges Execute scans: enumerate intersecting cell
// runs, refine per cell by the sort dimension when applicable, and append
// the outlier buffer.
func (g *Grid) planInto(q query.Query, ctx *ExecContext, dst []PhysRange, st *ExecStats) []PhysRange {
	if g.n == 0 {
		return dst
	}

	effLo, effHi, ok := g.effectiveFilters(q, ctx)
	if !ok {
		// The functional-mapping bounds prove no INLIER can match, but the
		// bounds do not cover the outlier buffer — scan it regardless.
		return g.planOutliers(dst, st)
	}

	runs := g.enumerate(q, effLo, effHi, ctx)
	if len(runs) == 0 {
		return g.planOutliers(dst, st)
	}
	// walk emits runs in row-major order, so they are already sorted except
	// in rare conditional-boundary cases; sort only when needed.
	for i := 1; i < len(runs); i++ {
		if runs[i].start < runs[i-1].start {
			sort.Slice(runs, func(a, b int) bool { return runs[a].start < runs[b].start })
			break
		}
	}
	runs = mergeRuns(runs)

	sortFilter, refine := query.Filter{}, false
	if g.layout.SortDim >= 0 {
		sortFilter, refine = q.Filter(g.layout.SortDim)
	}

	for _, r := range runs {
		if refine {
			// Rows within each cell are sorted by the sort dimension:
			// binary-search the exact sub-range per cell (§2.2 refinement).
			col := g.store.Column(g.layout.SortDim)
			for c := r.start; c <= r.end; c++ {
				s, e := g.offsets[c], g.offsets[c+1]
				if s >= e {
					continue
				}
				lo := s + sort.Search(e-s, func(i int) bool { return col[s+i] >= sortFilter.Lo })
				hi := s + sort.Search(e-s, func(i int) bool { return col[s+i] > sortFilter.Hi })
				if lo >= hi {
					continue
				}
				dst = append(dst, PhysRange{Start: lo, End: hi, Exact: r.exact})
				st.CellRanges++
				st.CellsVisited++
			}
			continue
		}
		s, e := g.offsets[r.start], g.offsets[r.end+1]
		if s >= e {
			continue
		}
		dst = append(dst, PhysRange{Start: s, End: e, Exact: r.exact})
		st.CellRanges++
		st.CellsVisited += r.end - r.start + 1
	}
	return g.planOutliers(dst, st)
}

// planOutliers appends the rows diverted by robust functional mappings
// (§8); they live after the last cell and must be checked by every query.
func (g *Grid) planOutliers(dst []PhysRange, st *ExecStats) []PhysRange {
	if g.nOutliers == 0 {
		return dst
	}
	s := g.offsets[len(g.offsets)-1]
	st.CellRanges++
	return append(dst, PhysRange{Start: s, End: s + g.nOutliers})
}

// effectiveFilters combines the query's own filters with ranges induced by
// functional mappings (§5.2.1): a filter over a mapped dimension is
// transformed into a filter over the target dimension and intersected with
// any existing filter there. Returns ok=false when an intersection is
// provably empty.
func (g *Grid) effectiveFilters(q query.Query, ctx *ExecContext) ([]int64, []int64, bool) {
	d := len(g.layout.Skeleton)
	lo, hi := ctx.effBounds(d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = query.NoLo, query.NoHi
	}
	for _, f := range q.Filters {
		lo[f.Dim], hi[f.Dim] = f.Lo, f.Hi
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
		m := g.mappings[j]
		blo, bhi := m.Bounds(float64(flo), float64(fhi))
		t := strat.Other
		tlo := int64(math.Floor(blo))
		thi := int64(math.Ceil(bhi))
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

// dimRange holds a per-grid-dim partition index range plus the endpoint
// exactness needed to split runs (§5.3.1 counts the resulting ranges).
type dimRange struct {
	a, b             int
	filtered         bool
	exactLo, exactHi bool // endpoint partitions contained in the filter
	conditional      bool
	basePos          int // position of the base dim in gridDims (conditional only)
	condLo, condHi   int64
}

// enumerate produces the cell-id runs intersecting the query.
//
// Grid dims are walked in stride order (gridDims is topological: bases
// before dependents). Trailing dims that the query leaves unconstrained —
// full partition range, and not the base of any filtered conditional dim —
// form a suffix whose cells are contiguous per prefix combination, so
// recursion stops at the last constrained position e and emits runs of
// strides[e] cells at a time. This keeps enumeration cost proportional to
// the number of constrained combinations, not total intersecting cells.
func (g *Grid) enumerate(q query.Query, effLo, effHi []int64, ctx *ExecContext) []run {
	nd := len(g.gridDims)
	ctx.runs = ctx.runs[:0]
	if nd == 0 {
		// No grid dims at all: one run over the single cell.
		return append(ctx.runs, run{start: 0, end: 0, exact: len(q.Filters) == 0})
	}

	ranges, idx := ctx.dimScratch(nd)

	for k, j := range g.gridDims {
		filtered := effLo[j] != query.NoLo || effHi[j] != query.NoHi
		switch g.layout.Skeleton[j].Kind {
		case Independent:
			r := dimRange{filtered: filtered}
			if filtered {
				r.a, r.b, r.exactLo, r.exactHi = g.indepRange(j, effLo[j], effHi[j])
			} else {
				r.a, r.b, r.exactLo, r.exactHi = 0, g.layout.P[j]-1, true, true
			}
			ranges[k] = r
		case Conditional:
			ranges[k] = dimRange{
				filtered:    filtered,
				conditional: true,
				basePos:     g.posOf[g.layout.Skeleton[j].Other],
				condLo:      effLo[j],
				condHi:      effHi[j],
			}
		}
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

	// Find the emission position e: the last position that is filtered or
	// that a filtered conditional dim depends on.
	e := -1
	for k := nd - 1; k >= 0; k-- {
		if ranges[k].filtered {
			e = k
			break
		}
	}
	for k := range ranges {
		if ranges[k].conditional && ranges[k].filtered && ranges[k].basePos > e {
			e = ranges[k].basePos
		}
	}
	if e < 0 {
		// Fully unconstrained over grid dims: one run over everything.
		return append(ctx.runs, run{start: 0, end: len(g.offsets) - 2, exact: baseExact})
	}

	g.walk(ctx, ranges, idx, 0, e, 0, baseExact)
	return ctx.runs
}

// walk recursively enumerates positions [k, e] of the grid; position e
// emits runs covering its partition range times the unconstrained suffix.
func (g *Grid) walk(ctx *ExecContext, ranges []dimRange, idx []int, k, e, cellBase int, exact bool) {
	r := &ranges[k]
	a, b := r.a, r.b
	exLo, exHi := r.exactLo, r.exactHi
	if r.conditional {
		j := g.gridDims[k]
		a, b, exLo, exHi = g.condRange(j, idx[r.basePos], r.condLo, r.condHi, r.filtered)
	}
	stride := g.strides[k]
	if k == e {
		g.emitRuns(ctx, cellBase, stride, a, b, exact, exLo, exHi, r.filtered)
		return
	}
	for i := a; i <= b; i++ {
		idx[k] = i
		ex := exact
		if r.filtered {
			if i == a && !exLo {
				ex = false
			}
			if i == b && !exHi {
				ex = false
			}
		}
		g.walk(ctx, ranges, idx, k+1, e, cellBase+i*stride, ex)
	}
}

// emitRuns emits the (up to three) runs covering partitions [a, b] at the
// emission position: each partition spans stride consecutive cells (the
// unconstrained suffix), and inexact endpoint partitions are split off so
// interior cells can use the exact-range scan optimization.
func (g *Grid) emitRuns(ctx *ExecContext, base, stride, a, b int, exact, exLo, exHi, filtered bool) {
	if !filtered {
		exLo, exHi = true, true
	}
	block := func(p0, p1 int, ex bool) run {
		return run{start: base + p0*stride, end: base + (p1+1)*stride - 1, exact: ex}
	}
	if a == b {
		ctx.runs = append(ctx.runs, block(a, a, exact && exLo && exHi))
		return
	}
	lo, hi := a, b
	if !exLo {
		ctx.runs = append(ctx.runs, block(a, a, false))
		lo = a + 1
	}
	endSplit := !exHi
	if endSplit {
		hi = b - 1
	}
	if lo <= hi {
		ctx.runs = append(ctx.runs, block(lo, hi, exact))
	}
	if endSplit {
		ctx.runs = append(ctx.runs, block(b, b, false))
	}
}

// indepRange returns the intersecting partition range of an independent dim
// for filter [lo, hi], plus endpoint exactness.
func (g *Grid) indepRange(j int, lo, hi int64) (int, int, bool, bool) {
	return boundsRange(g.bounds[j], g.layout.P[j], lo, hi)
}

// condRange is indepRange for a conditional dim given the base partition.
func (g *Grid) condRange(j, bp int, lo, hi int64, filtered bool) (int, int, bool, bool) {
	if !filtered {
		return 0, g.layout.P[j] - 1, true, true
	}
	return boundsRange(g.condBounds[j][bp], g.layout.P[j], lo, hi)
}

// boundsRange computes the partition index range [a, b] intersecting value
// range [lo, hi] under boundary array bounds (p+1 long), with endpoint
// exactness: whether the endpoint partitions' slabs are contained in
// [lo, hi].
func boundsRange(bounds []int64, p int, lo, hi int64) (int, int, bool, bool) {
	a := clampPart(sort.Search(len(bounds), func(i int) bool { return bounds[i] > lo })-1, p)
	b := clampPart(sort.Search(len(bounds), func(i int) bool { return bounds[i] > hi })-1, p)
	if b < a {
		b = a
	}
	exLo := lo <= bounds[a]
	exHi := hi >= bounds[b+1]-1
	return a, b, exLo, exHi
}

// mergeRuns merges sorted runs whose cell ranges are adjacent and share the
// same exactness.
func mergeRuns(runs []run) []run {
	out := runs[:1]
	for _, r := range runs[1:] {
		last := &out[len(out)-1]
		if r.start <= last.end+1 && r.exact == last.exact {
			if r.end > last.end {
				last.end = r.end
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
