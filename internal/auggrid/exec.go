package auggrid

import (
	"math"

	"repro/internal/colstore"
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
// execution scans, with the exactness flag the scan consumes. Ranges are
// absolute positions in the finalized store; a plan's list of them is
// what colstore.Store.ScanRanges answers.
type PhysRange = colstore.Range

// PlanRanges appends to dst the physical row ranges a query's execution
// scans for q and returns the extended slice plus the traversal stats.
// Scanning the returned ranges with the store's ScanRanges answers q. A
// built Grid is immutable; all per-query state lives in ctx, so any
// number of goroutines may plan concurrently against the same Grid as
// long as each uses its own ExecContext.
func (g *Grid) PlanRanges(q query.Query, ctx *ExecContext, dst []PhysRange) ([]PhysRange, ExecStats) {
	var st ExecStats
	return g.planInto(q, ctx, dst, &st), st
}

// planInto computes the ranges a query scans: the cell runs that intersect
// the query, each refined cell by cell when the query filters the sort dim,
// then the outlier buffer. The walk emits runs in ascending cell order and
// refinement keeps it, so the ranges ascend and never overlap. A sort
// filter that misses the grid's observed range of the sort dim leaves
// refinement nothing to emit, so such a grid plans its outliers alone.
func (g *Grid) planInto(q query.Query, ctx *ExecContext, dst []PhysRange, st *ExecStats) []PhysRange {
	if g.n == 0 {
		return dst
	}

	effLo, effHi, ok := g.effectiveFilters(q, ctx)
	sd := g.layout.SortDim
	if !ok || (sd >= 0 && (effHi[sd] < g.dimLo[sd] || effLo[sd] > g.dimHi[sd])) {
		// No INLIER can match, but the outlier buffer lies outside the
		// mappings' error bounds: scan it regardless.
		return g.planOutliers(dst, st)
	}

	runs := g.enumerate(q, effLo, effHi, ctx)
	if sd >= 0 && (effLo[sd] != query.NoLo || effHi[sd] != query.NoHi) {
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
			switch cutLo, cutHi := col[s] < lo, col[e-1] > hi; {
			case cutLo && cutHi:
				s, e = cutGT2(col, s, e, lo-1, hi)
			case cutLo:
				s = cutGT(col, s, e, lo-1)
			case cutHi:
				e = cutGT(col, s, e, hi)
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

// cutGT is searchGT for refine's searches of a cell's rows, made
// branch-free: each probe halves the candidates by a flag (SETcc) instead
// of a jump. A cell holds a few dozen rows, and on a correlated table
// which half of it holds the filter's bound changes from cell to cell,
// so a branching search mispredicted about every other probe. (Where
// every cell's search takes the same path, as on the uniform table of
// BenchmarkPlanRanges' fig7 shape, the branches were predicted and this
// loop's dependent loads cost more.)
func cutGT(col []int64, s, e int, v int64) int {
	for n := e - s; n > 1; {
		half, le := n>>1, 0
		if col[s+half] <= v {
			le = 1
		}
		s += half & -le
		n -= half
	}
	if col[s] <= v {
		s++
	}
	return s
}

// cutGT2 is cutGT for v1 and v2 over the same cell (at least one row),
// the two searches run side by side: their probes are independent, so
// one's load latency hides the other's.
func cutGT2(col []int64, s, e int, v1, v2 int64) (int, int) {
	a, b := s, s
	for n := e - s; n > 1; {
		half, le1, le2 := n>>1, 0, 0
		if col[a+half] <= v1 {
			le1 = 1
		}
		if col[b+half] <= v2 {
			le2 = 1
		}
		a += half & -le1
		b += half & -le2
		n -= half
	}
	if col[a] <= v1 {
		a++
	}
	if col[b] <= v2 {
		b++
	}
	return a, b
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

// dimRange is one position the walk visits: a grid dim with its partition
// index range, plus the endpoint exactness needed to split runs (§5.3.1
// counts the resulting ranges). Two kinds of position read per-partition
// tables the query computed once into its context:
//   - a filtered conditional dim whose base the walk visits has, for base
//     partition i, the range ctx.conds[cond+i];
//   - a base with filtered single-partition conditional dependents keeps
//     partition i's cells exact only if ctx.exact[exact+i]: such a
//     dependent has one cell index, so its filter only decides exactness,
//     and that depends on the base's partition alone.
type dimRange struct {
	pos, stride      int // position in gridDims, and its cell-id stride
	a, b             int
	exactLo, exactHi bool // endpoint partitions contained in the filter
	conditional      bool // a, b, exactLo, exactHi come from ctx.conds
	basePos          int  // conditional only: the base's position in gridDims
	cond             int  // conditional only: offset of its ranges in ctx.conds
	partExact        bool // partition i's exactness is also ctx.exact[exact+i]
	exact            int  // partExact only: offset in ctx.exact
}

// condRange is a conditional dim's partition range and endpoint
// exactness in one base partition.
type condRange struct {
	a, b       int
	exLo, exHi bool
}

// enumerate produces the cell-id runs intersecting the query, in ascending
// cell order, adjacent runs of equal exactness merged.
//
// Grid dims are walked in stride order (gridDims is topological: bases
// before dependents). A position with one partition has cell index 0 in
// every cell, so the walk skips it: a filter there can only clear
// exactness. For an independent dim, or a conditional dim whose base has
// one partition (one set of boundaries), that is folded into baseExact
// once; for a conditional dim over a partitioned base it depends on the
// base's partition, so it is worked out per base partition and applied
// where the walk visits the base. A conditional dim with several
// partitions over a partitioned base stays a position, with its range
// worked out once per base partition in the base's range. Trailing
// positions the query leaves unconstrained form a suffix whose cells are
// contiguous per prefix combination, so the walk stops at the last
// filtered position e, or at a base whose partitions decide exactness if
// that comes later, and emits runs of strides[e] cells at a time. This
// keeps enumeration cost proportional to the number of constrained
// combinations, not total intersecting cells.
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

	ranges, idx, at := ctx.dimScratch(nd)
	ctx.conds, ctx.exact = ctx.conds[:0], ctx.exact[:0]
	e := -1
	for k, j := range g.gridDims {
		p := g.layout.P[j]
		at[k] = -1
		r := dimRange{pos: k, stride: g.strides[k], b: p - 1, exactLo: true, exactHi: true}
		if effLo[j] == query.NoLo && effHi[j] == query.NoHi {
			if p > 1 {
				at[k] = len(ranges)
				ranges = append(ranges, r) // walked over its full range
			}
			continue
		}
		switch strat := g.layout.Skeleton[j]; {
		case strat.Kind == Conditional && g.layout.P[strat.Other] > 1:
			// The base has several partitions, so it is a position.
			bp := g.posOf[strat.Other]
			base := &ranges[at[bp]]
			if p == 1 {
				if !base.partExact {
					base.partExact, base.exact = true, len(ctx.exact)-base.a
					for i := base.a; i <= base.b; i++ {
						ctx.exact = append(ctx.exact, true)
					}
				}
				for i := base.a; i <= base.b; i++ {
					_, _, exLo, exHi := boundsRange(g.condBounds[j][i], 1, effLo[j], effHi[j])
					ctx.exact[base.exact+i] = ctx.exact[base.exact+i] && exLo && exHi
				}
				e = max(e, at[bp])
				continue
			}
			r.conditional, r.basePos, r.cond = true, bp, len(ctx.conds)-base.a
			for i := base.a; i <= base.b; i++ {
				a, b, exLo, exHi := boundsRange(g.condBounds[j][i], p, effLo[j], effHi[j])
				ctx.conds = append(ctx.conds, condRange{a: a, b: b, exLo: exLo, exHi: exHi})
			}
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
		at[k] = e
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
		c := &ctx.conds[r.cond+idx[r.basePos]]
		a, b, exLo, exHi = c.a, c.b, c.exLo, c.exHi
	}
	last := k == len(ranges)-1
	if last && !r.partExact {
		ctx.emitRuns(cellBase, r.stride, a, b, exact, exLo, exHi)
		return
	}
	for i := a; i <= b; i++ {
		ex := exact && (i != a || exLo) && (i != b || exHi) && (!r.partExact || ctx.exact[r.exact+i])
		if last {
			ctx.push(cellBase+i*r.stride, cellBase+(i+1)*r.stride-1, ex)
			continue
		}
		idx[r.pos] = i
		g.walk(ctx, ranges, idx, k+1, cellBase+i*r.stride, ex)
	}
}

// emitRuns emits the (up to three) runs covering partitions [a, b] at the
// emission position: each partition spans stride consecutive cells (the
// unconstrained suffix), and inexact endpoint partitions are split off so
// interior cells can use the exact-range scan optimization.
func (ctx *ExecContext) emitRuns(base, stride, a, b int, exact, exLo, exHi bool) {
	if !exLo {
		ctx.push(base+a*stride, base+(a+1)*stride-1, false)
		a++
	}
	split := !exHi && a <= b
	if split {
		b--
	}
	if a <= b {
		ctx.push(base+a*stride, base+(b+1)*stride-1, exact)
	}
	if split {
		ctx.push(base+(b+1)*stride, base+(b+2)*stride-1, false)
	}
}

// push appends the run of cells [start, end], merging it into the last
// run when the two are adjacent and share exactness, so the runs come out
// maximal.
func (ctx *ExecContext) push(start, end int, exact bool) {
	if n := len(ctx.runs); n > 0 && ctx.runs[n-1].end+1 == start && ctx.runs[n-1].exact == exact {
		ctx.runs[n-1].end = end
		return
	}
	ctx.runs = append(ctx.runs, run{start: start, end: end, exact: exact})
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
