package auggrid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
)

// execute answers q on g the way core answers one region: plan the
// ranges, then scan them with ScanRanges.
func execute(g *Grid, q query.Query) (colstore.ScanResult, ExecStats) {
	ranges, st := g.PlanRanges(q, NewExecContext(), nil)
	var res colstore.ScanResult
	ScanRanges(g.store, q, ranges, &res, nil)
	return res, st
}

func TestExecuteUnboundedFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := makeCorrelatedStore(3000, rng)
	l := NewLayout(IndependentSkeleton(4), []int{4, 4, 4, 4}, -1)
	g, st := buildGrid(t, s, l)
	// One-sided filters exercise the NoLo/NoHi paths.
	for _, q := range []query.Query{
		query.NewCount(query.Filter{Dim: 0, Lo: query.NoLo, Hi: 50000}),
		query.NewCount(query.Filter{Dim: 1, Lo: 100000, Hi: query.NoHi}),
		query.NewCount(query.Filter{Dim: 2, Lo: query.NoLo, Hi: query.NoHi}),
	} {
		var want colstore.ScanResult
		st.ScanRange(q, 0, st.NumRows(), false, &want)
		got, _ := execute(g, q)
		if got.Count != want.Count {
			t.Errorf("%s: got %d, want %d", q, got.Count, want.Count)
		}
	}
}

func TestExecuteFilterOutsideDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := makeCorrelatedStore(2000, rng)
	l := NewLayout(IndependentSkeleton(4), []int{4, 4, 2, 2}, 3)
	g, _ := buildGrid(t, s, l)
	res, _ := execute(g, query.NewCount(query.Filter{Dim: 0, Lo: -500, Hi: -100}))
	if res.Count != 0 {
		t.Errorf("below-domain filter matched %d rows", res.Count)
	}
	res, _ = execute(g, query.NewCount(query.Filter{Dim: 0, Lo: 1 << 40, Hi: 1 << 41}))
	if res.Count != 0 {
		t.Errorf("above-domain filter matched %d rows", res.Count)
	}
}

func TestExecuteMappedFilterOutsideDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := makeCorrelatedStore(2000, rng)
	sk := IndependentSkeleton(4)
	sk[1] = DimStrategy{Kind: Mapped, Other: 0}
	l := NewLayout(sk, []int{8, 1, 2, 2}, -1)
	g, _ := buildGrid(t, s, l)
	// d1 = 2*d0 + [1000, 1500); values below 1000 are impossible.
	res, _ := execute(g, query.NewCount(query.Filter{Dim: 1, Lo: 0, Hi: 500}))
	if res.Count != 0 {
		t.Errorf("impossible mapped filter matched %d rows", res.Count)
	}
}

func TestExecuteAllDimsEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := makeCorrelatedStore(3000, rng)
	l := NewLayout(IndependentSkeleton(4), []int{6, 6, 3, 3}, 2)
	g, st := buildGrid(t, s, l)
	// Pick an existing row and query it exactly.
	row := st.Row(1234, nil)
	q := query.NewCount(
		query.Filter{Dim: 0, Lo: row[0], Hi: row[0]},
		query.Filter{Dim: 1, Lo: row[1], Hi: row[1]},
		query.Filter{Dim: 2, Lo: row[2], Hi: row[2]},
		query.Filter{Dim: 3, Lo: row[3], Hi: row[3]},
	)
	var want colstore.ScanResult
	st.ScanRange(q, 0, st.NumRows(), false, &want)
	got, _ := execute(g, q)
	if got.Count != want.Count || got.Count == 0 {
		t.Errorf("point query: got %d, want %d (>0)", got.Count, want.Count)
	}
}

func TestExecStatsCountRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := makeCorrelatedStore(5000, rng)
	l := NewLayout(IndependentSkeleton(4), []int{8, 1, 1, 1}, -1)
	g, _ := buildGrid(t, s, l)
	lo, hi := s.MinMax(0)
	// A contiguous partition range in the only partitioned dim yields at
	// most two physical ranges: the exact interior plus an inexact
	// endpoint partition split off so the interior can skip checks.
	_, st := execute(g, query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: (lo + hi) / 2}))
	if st.CellRanges > 2 {
		t.Errorf("contiguous cells produced %d ranges, want <= 2", st.CellRanges)
	}
	// A filter aligned exactly on partition boundaries is one exact range.
	b := g.bounds[0]
	_, st2 := execute(g, query.NewCount(query.Filter{Dim: 0, Lo: b[1], Hi: b[4] - 1}))
	if st2.CellRanges != 1 {
		t.Errorf("boundary-aligned filter produced %d ranges, want 1", st2.CellRanges)
	}
}

func TestExecuteExactRangeSkipsChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := makeCorrelatedStore(5000, rng)
	l := NewLayout(IndependentSkeleton(4), []int{8, 1, 1, 1}, -1)
	g, _ := buildGrid(t, s, l)
	// A filter exactly on partition boundaries covers cells exactly: a
	// COUNT should then touch (almost) no data.
	b := g.bounds[0]
	q := query.NewCount(query.Filter{Dim: 0, Lo: b[2], Hi: b[5] - 1})
	res, _ := execute(g, q)
	if res.Count == 0 {
		t.Fatal("expected matches")
	}
	// Only the endpoint partitions may be scanned; interior is exact.
	if res.PointsScanned > res.Count/2 {
		t.Errorf("exact-range scan touched %d points for %d matches", res.PointsScanned, res.Count)
	}
}

func TestConditionalGuaranteedEmptyRegions(t *testing.T) {
	// Fig 6's claim: with CDF(Y|X), regions outside the staggered cells
	// hold no points, so per-base ranges skip them. Verify per-base
	// boundaries cover exactly the points of that base partition.
	rng := rand.New(rand.NewSource(7))
	s := makeCorrelatedStore(10000, rng)
	sk := IndependentSkeleton(4)
	sk[2] = DimStrategy{Kind: Conditional, Other: 0}
	l := NewLayout(sk, []int{8, 1, 8, 1}, -1)
	g, st := buildGrid(t, s, l)
	col0, col2 := st.Column(0), st.Column(2)
	for i := 0; i < st.NumRows(); i++ {
		bp := g.partIndep(0, col0[i])
		cb := g.condBounds[2][bp]
		if col2[i] < cb[0]-0 && col2[i] > cb[len(cb)-1] {
			t.Fatalf("row %d outside its base partition's conditional bounds", i)
		}
	}
	// And the paper's efficiency claim: conditional partitioning scans
	// fewer points than independent for a correlated pair query.
	indep := NewLayout(IndependentSkeleton(4), []int{8, 1, 8, 1}, -1)
	gi, _ := buildGrid(t, s, indep)
	q := query.NewCount(
		query.Filter{Dim: 0, Lo: 20000, Hi: 40000},
		query.Filter{Dim: 2, Lo: 1000, Hi: 3000},
	)
	rc, _ := execute(g, q)
	ri, _ := execute(gi, q)
	if rc.Count != ri.Count {
		t.Fatalf("conditional and independent disagree: %d vs %d", rc.Count, ri.Count)
	}
}

func TestGridSizeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := makeCorrelatedStore(3000, rng)
	sk := IndependentSkeleton(4)
	sk[1] = DimStrategy{Kind: Mapped, Other: 0}
	sk[2] = DimStrategy{Kind: Conditional, Other: 0}
	l := NewLayout(sk, []int{8, 1, 4, 2}, -1)
	g, _ := buildGrid(t, s, l)
	if g.NumCells() != 8*4*2 {
		t.Fatalf("cells = %d, want %d", g.NumCells(), 8*4*2)
	}
	want := uint64(4*(8*4*2+1) + // the lookup table: one 4-byte offset per cell, plus the end
		8*(8+1+2+1) + // boundaries of independent d0 and d3
		8*8*(4+1) + // d2's boundaries in each of d0's partitions
		32 + // d1's mapping onto d0
		16*4) // observed min and max of each dim
	if got := g.SizeBytes(); got != want {
		t.Errorf("size %d bytes, want %d", got, want)
	}
}

func TestSkeletonStringNotation(t *testing.T) {
	sk := IndependentSkeleton(3)
	sk[1] = DimStrategy{Kind: Mapped, Other: 0}
	sk[2] = DimStrategy{Kind: Conditional, Other: 0}
	got := sk.String()
	want := "[d0,d1→d0,d2|d0]"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	fms, ccdfs := sk.CountKinds()
	if fms != 1 || ccdfs != 1 {
		t.Errorf("CountKinds = (%d, %d), want (1, 1)", fms, ccdfs)
	}
}

func TestGridDimsExcludeMappedAndSort(t *testing.T) {
	sk := IndependentSkeleton(4)
	sk[1] = DimStrategy{Kind: Mapped, Other: 0}
	l := NewLayout(sk, []int{2, 2, 2, 2}, 3)
	gd := l.GridDims()
	if len(gd) != 2 || gd[0] != 0 || gd[1] != 2 {
		t.Errorf("GridDims = %v, want [0 2]", gd)
	}
	if l.NumCells() != 4 {
		t.Errorf("NumCells = %d, want 4", l.NumCells())
	}
}

// TestBoundsRangeSaturatedTop: a column holding MaxInt64 has its top
// boundary saturated at MaxInt64 (one past it does not exist), so the last
// partition holds MaxInt64 and only a filter reaching MaxInt64 contains it.
func TestBoundsRangeSaturatedTop(t *testing.T) {
	for _, c := range []struct {
		bounds []int64
		hi     int64
		b      int
		exHi   bool
	}{
		{[]int64{0, 10, 20}, 19, 1, true},
		{[]int64{0, 10, 20}, 18, 1, false},
		{[]int64{0, 10, math.MaxInt64}, math.MaxInt64 - 1, 1, false},
		{[]int64{0, 10, math.MaxInt64}, math.MaxInt64, 1, true},
		// An interior boundary at MaxInt64 stays exclusive: MaxInt64
		// itself lands in the last partition.
		{[]int64{0, math.MaxInt64, math.MaxInt64}, math.MaxInt64 - 1, 0, true},
		{[]int64{0, math.MaxInt64, math.MaxInt64}, math.MaxInt64, 1, true},
	} {
		_, b, _, exHi := boundsRange(c.bounds, 2, 5, c.hi)
		if b != c.b || exHi != c.exHi {
			t.Errorf("bounds %v, hi %d: b=%d exHi=%v, want b=%d exHi=%v", c.bounds, c.hi, b, exHi, c.b, c.exHi)
		}
	}
}

// TestMappedBoundsSaturate: converting a mapping's predicted bound to int64
// saturates outside the int64 range, so a huge prediction never wraps into
// an empty range.
func TestMappedBoundsSaturate(t *testing.T) {
	for f, want := range map[float64]int64{
		2:            2,
		-3:           -3,
		1e19:         math.MaxInt64,
		-1e19:        math.MinInt64,
		math.Inf(1):  math.MaxInt64,
		math.Inf(-1): math.MinInt64,
	} {
		if got := toInt64(f); got != want {
			t.Errorf("toInt64(%g) = %d, want %d", f, got, want)
		}
	}
}
