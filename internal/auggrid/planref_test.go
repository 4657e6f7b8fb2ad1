package auggrid

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/query"
)

// This file keeps the planner as it was before the walk learned to skip
// what cannot match (the observed sort range, single-partition conditional
// dims as walk positions, conditional ranges per walked prefix); it shares
// only effectiveFilters, refine, planOutliers and boundsRange with the
// planner. It is the reference TestPlanMatchesReference and FuzzPlanRanges
// hold PlanRanges to, range for range and stat for stat, and the baseline
// BenchmarkPlanRangesReference times.

// checkMatchesReference plans q on pg with ctx and with the reference
// planner, and fails unless both give the same ranges and stats.
func checkMatchesReference(t *testing.T, pg planGrid, q query.Query, ctx *ExecContext, ref *refPlanner) {
	t.Helper()
	got, gotSt := pg.g.PlanRanges(q, ctx, nil)
	want, wantSt := ref.plan(pg.g, q, nil)
	if !slices.Equal(got, want) || gotSt != wantSt {
		t.Fatalf("%s on layout %v: planned %d ranges %+v, the reference %d ranges %+v",
			q, pg.g.Layout(), len(got), gotSt, len(want), wantSt)
	}
}

// TestPlanMatchesReference holds the planner to the reference on every
// planGrids grid: random query literals, then every dim and way of
// drawing its bounds alone and beside a filter on every other dim.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	grids := planGrids(t)
	ctx, ref := NewExecContext(), &refPlanner{}
	spec := make([]byte, 24)
	for i := 0; i < 4000; i++ {
		pg := grids[rng.Intn(len(grids))]
		n := 3 * rng.Intn(len(spec)/3+1)
		rng.Read(spec[:n])
		checkMatchesReference(t, pg, planQuery(pg, spec[:n]), ctx, ref)
	}
	for _, pg := range grids {
		nd := pg.st.NumDims()
		for d := 0; d < nd; d++ {
			for kind := 0; kind < 24; kind++ {
				for _, at := range []byte{0, 77, 128, 255} {
					one := []byte{byte(d), byte(kind), at}
					checkMatchesReference(t, pg, planQuery(pg, one), ctx, ref)
					for o := 0; o < nd; o++ {
						two := append(one, byte(o), byte(rng.Intn(24)), byte(rng.Intn(256)))
						checkMatchesReference(t, pg, planQuery(pg, two), ctx, ref)
					}
				}
			}
		}
	}
}

// refDimRange is the reference walk's position: a filtered conditional dim
// whose base has several partitions recomputes its range from the base's
// partition at every visit.
type refDimRange struct {
	pos, stride      int
	a, b             int
	exactLo, exactHi bool
	conditional      bool
	dim, p           int
	basePos          int
	lo, hi           int64
}

// refPlanner is the reference planner's reusable scratch.
type refPlanner struct {
	ctx    ExecContext // only its effective-filter bounds
	ranges []refDimRange
	idx    []int
	runs   []run
}

// plan appends q's ranges on g to dst, the reference way.
func (rp *refPlanner) plan(g *Grid, q query.Query, dst []PhysRange) ([]PhysRange, ExecStats) {
	var st ExecStats
	if g.n == 0 {
		return dst, st
	}
	effLo, effHi, ok := g.effectiveFilters(q, &rp.ctx)
	if !ok {
		return g.planOutliers(dst, &st), st
	}
	runs := refMergeRuns(rp.enumerate(g, q, effLo, effHi))
	if sd := g.layout.SortDim; sd >= 0 && (effLo[sd] != query.NoLo || effHi[sd] != query.NoHi) {
		dst = g.refine(runs, g.store.Column(sd), effLo[sd], effHi[sd], dst, &st)
		return g.planOutliers(dst, &st), st
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
	return g.planOutliers(dst, &st), st
}

func (rp *refPlanner) enumerate(g *Grid, q query.Query, effLo, effHi []int64) []run {
	nd := len(g.gridDims)
	rp.runs = rp.runs[:0]
	if nd == 0 {
		return append(rp.runs, run{start: 0, end: 0, exact: len(q.Filters) == 0})
	}
	baseExact := true
	for _, f := range q.Filters {
		if g.layout.Skeleton[f.Dim].Kind == Mapped {
			baseExact = false
		}
	}
	if cap(rp.idx) < nd {
		rp.ranges, rp.idx = make([]refDimRange, nd), make([]int, nd)
	}
	ranges, idx := rp.ranges[:0], rp.idx[:nd]
	e := -1
	for k, j := range g.gridDims {
		p := g.layout.P[j]
		r := refDimRange{pos: k, stride: g.strides[k], b: p - 1, exactLo: true, exactHi: true}
		if effLo[j] == query.NoLo && effHi[j] == query.NoHi {
			if p > 1 {
				ranges = append(ranges, r)
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
		return append(rp.runs, run{start: 0, end: len(g.offsets) - 2, exact: baseExact})
	}
	refWalk(g, &rp.runs, ranges[:e+1], idx, 0, 0, baseExact)
	return rp.runs
}

func refWalk(g *Grid, runs *[]run, ranges []refDimRange, idx []int, k, cellBase int, exact bool) {
	r := &ranges[k]
	a, b, exLo, exHi := r.a, r.b, r.exactLo, r.exactHi
	if r.conditional {
		a, b, exLo, exHi = boundsRange(g.condBounds[r.dim][idx[r.basePos]], r.p, r.lo, r.hi)
	}
	if k == len(ranges)-1 {
		refEmitRuns(runs, cellBase, r.stride, a, b, exact, exLo, exHi)
		return
	}
	for i := a; i <= b; i++ {
		idx[r.pos] = i
		ex := exact && (i != a || exLo) && (i != b || exHi)
		refWalk(g, runs, ranges, idx, k+1, cellBase+i*r.stride, ex)
	}
}

func refEmitRuns(runs *[]run, base, stride, a, b int, exact, exLo, exHi bool) {
	if !exLo {
		*runs = append(*runs, run{start: base + a*stride, end: base + (a+1)*stride - 1})
		a++
	}
	split := !exHi && a <= b
	if split {
		b--
	}
	if a <= b {
		*runs = append(*runs, run{start: base + a*stride, end: base + (b+1)*stride - 1, exact: exact})
	}
	if split {
		*runs = append(*runs, run{start: base + (b+1)*stride, end: base + (b+2)*stride - 1})
	}
}

func refMergeRuns(runs []run) []run {
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
