package auggrid

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
)

// planGrid is a built grid over its own reordered store.
type planGrid struct {
	g  *Grid
	st *colstore.Store
}

var (
	planGridsOnce sync.Once
	planGridsAll  []planGrid
)

// planGrids builds, once, grids that between them cover every planner
// path: every strategy kind; single-partition dims, independent and
// conditional, filtered or not; conditional dims whose base has one
// partition or several, among them single-partition ones over a
// partitioned base that is or is not the last grid dim; a sort dim; an
// outlier buffer; a grid whose dims all have one partition; and a grid
// over a band of the sort dim's values, bound after rows outside it, so a
// sort filter can miss the grid's observed range and still match rows of
// the store.
func planGrids(tb testing.TB) []planGrid {
	planGridsOnce.Do(func() {
		s := makePlanStore(1500, rand.New(rand.NewSource(29)))
		mapped := IndependentSkeleton(5)
		mapped[1] = DimStrategy{Kind: Mapped, Other: 0}
		mapped[2] = DimStrategy{Kind: Conditional, Other: 0}
		cond := IndependentSkeleton(5)
		cond[2] = DimStrategy{Kind: Conditional, Other: 4} // base has one partition
		cond[3] = DimStrategy{Kind: Conditional, Other: 0} // one partition itself
		single := IndependentSkeleton(5)
		single[4] = DimStrategy{Kind: Conditional, Other: 1} // one partition, and so has its base
		onePart := IndependentSkeleton(5)
		onePart[1] = DimStrategy{Kind: Conditional, Other: 0} // several partitions
		onePart[2] = DimStrategy{Kind: Conditional, Other: 0} // one partition
		lastBase := IndependentSkeleton(5)
		lastBase[0] = DimStrategy{Kind: Conditional, Other: 4} // one partition
		lastBase[2] = DimStrategy{Kind: Conditional, Other: 4} // one partition
		withOutliers := NewLayout(mapped, []int{6, 1, 5, 1, 1}, 3)
		withOutliers.OutlierFrac = 0.02
		layouts := []Layout{
			NewLayout(IndependentSkeleton(5), []int{4, 1, 3, 1, 2}, -1),
			withOutliers,
			NewLayout(cond, []int{5, 1, 4, 1, 1}, 1),
			NewLayout(IndependentSkeleton(5), []int{1, 1, 1, 1, 1}, 4),
			NewLayout(single, []int{1, 1, 7, 2, 1}, 0),
			NewLayout(onePart, []int{4, 3, 1, 1, 2}, 3),
			NewLayout(lastBase, []int{1, 1, 1, 3, 5}, 1),
		}
		all := make([]int, s.NumRows())
		for i := range all {
			all[i] = i
		}
		for _, l := range layouts {
			planGridsAll = append(planGridsAll, buildPlanGrid(s, nil, all, l))
		}
		// The band: rows whose sort value (d3) lies in [10000, 40000].
		var outside, band []int
		for i, v := range s.Column(3) {
			if v >= 10000 && v <= 40000 {
				band = append(band, i)
			} else {
				outside = append(outside, i)
			}
		}
		planGridsAll = append(planGridsAll, buildPlanGrid(s, outside, band, layouts[5]))
	})
	if planGridsAll[1].g.nOutliers == 0 {
		tb.Fatal("the outlier layout diverted no rows")
	}
	return planGridsAll
}

// buildPlanGrid builds l over rows of s and binds the grid to a copy of s
// holding the before rows, then rows in grid order.
func buildPlanGrid(s *colstore.Store, before, rows []int, l Layout) planGrid {
	g, ordered, err := Build(s, rows, l)
	if err != nil {
		panic(err)
	}
	clone := s.Gather(append(slices.Clone(before), ordered...), nil)
	return planGrid{g: g.Bind(clone, len(before)), st: clone}
}

// makePlanStore builds a 5-dim store: d0 uniform, d1 linear in d0 with 1%
// of rows far off the line (they become outliers), d2 loosely correlated
// with d0, d3 uniform, and d4 with eight values, so sort and grid dims
// both see runs of equal values.
func makePlanStore(n int, rng *rand.Rand) *colstore.Store {
	cols := make([][]int64, 5)
	for j := range cols {
		cols[j] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		x := rng.Int63n(100000)
		cols[0][i] = x
		cols[1][i] = 2*x + 1000 + rng.Int63n(500)
		if rng.Intn(100) == 0 {
			cols[1][i] = rng.Int63n(400000)
		}
		cols[2][i] = x/10 + int64(rng.NormFloat64()*3000)
		cols[3][i] = rng.Int63n(50000)
		cols[4][i] = rng.Int63n(8)
	}
	s, err := colstore.FromColumns(cols, nil)
	if err != nil {
		panic(err)
	}
	return s
}

// planQuery decodes spec into a Query literal over pg's store, three bytes
// per filter: the dim, how its bounds are drawn, and which row, cell or
// width they come from. A literal may filter one dim more than once, and
// its filters may exclude each other.
func planQuery(pg planGrid, spec []byte) query.Query {
	q := query.Query{Type: -1}
	nd := pg.st.NumDims()
	for ; len(spec) >= 3 && len(q.Filters) < 8; spec = spec[3:] {
		d := int(spec[0]) % nd
		col := pg.st.Column(d)
		lo, hi := pg.st.MinMax(d)
		v := col[int(spec[2])*len(col)/256]
		f := query.Filter{Dim: d, Lo: v, Hi: v}
		switch spec[1] % 8 {
		case 1:
			f.Hi = query.NoHi
		case 2:
			f.Lo = query.NoLo
		case 3:
			f.Hi = v + int64(spec[2])*(hi-lo)/256
		case 4:
			// The first and last values of a cell: on the sort dim, the
			// values refinement decides a cell by.
			c := int(spec[2]) * pg.g.NumCells() / 256
			s, e := pg.g.Start()+int(pg.g.offsets[c]), pg.g.Start()+int(pg.g.offsets[c+1])
			if s == e {
				break
			}
			switch spec[1] / 8 % 3 {
			case 0:
				f.Lo, f.Hi = col[s], col[e-1]
			case 1:
				f.Lo, f.Hi = col[e-1], query.NoHi
			case 2:
				f.Lo, f.Hi = query.NoLo, col[s]
			}
		case 5:
			f.Lo, f.Hi = lo-100, lo-1
		case 6:
			f.Lo, f.Hi = hi+1, hi+100
		case 7:
			f.Lo, f.Hi = query.NoLo, query.NoHi
		}
		q.Filters = append(q.Filters, f)
	}
	return q
}

// checkPlan plans q on pg and checks what every plan must satisfy: the
// ranges ascend, are disjoint and lie inside the grid; every row matching
// q lies in one; every row of an exact range matches q; a range refined
// by the sort dim starts and ends on rows inside the sort filter; and the
// stats count every range.
func checkPlan(t *testing.T, pg planGrid, q query.Query, ctx *ExecContext) {
	t.Helper()
	g := pg.g
	ranges, st := g.PlanRanges(q, ctx, nil)
	if st.CellRanges != len(ranges) {
		t.Fatalf("%s: CellRanges %d for %d ranges", q, st.CellRanges, len(ranges))
	}
	cols := make([][]int64, pg.st.NumDims())
	for j := range cols {
		cols[j] = pg.st.Column(j)
	}
	matches := func(i int) bool {
		for _, f := range q.Filters {
			if v := cols[f.Dim][i]; v < f.Lo || v > f.Hi {
				return false
			}
		}
		return true
	}
	sd, sortLo, sortHi, refined := g.layout.SortDim, int64(query.NoLo), int64(query.NoHi), false
	for _, f := range q.Filters {
		if f.Dim == sd {
			sortLo, sortHi, refined = max(sortLo, f.Lo), min(sortHi, f.Hi), true
		}
	}
	outliers := g.Start() + int(g.offsets[len(g.offsets)-1])
	covered := make([]bool, g.NumRows())
	prevEnd := g.Start()
	for _, r := range ranges {
		if r.Start < prevEnd || r.End <= r.Start || r.End > g.Start()+g.NumRows() {
			t.Fatalf("%s: range [%d, %d) after %d is empty, overlapping, unsorted or outside [%d, %d)\nlayout %v",
				q, r.Start, r.End, prevEnd, g.Start(), g.Start()+g.NumRows(), g.Layout())
		}
		prevEnd = r.End
		for i := r.Start; i < r.End; i++ {
			covered[i-g.Start()] = true
			if r.Exact && !matches(i) {
				t.Fatalf("%s: exact range [%d, %d) holds non-matching row %d\nlayout %v", q, r.Start, r.End, i, g.Layout())
			}
		}
		if refined && r.Start != outliers {
			for _, i := range []int{r.Start, r.End - 1} {
				if v := cols[sd][i]; v < sortLo || v > sortHi {
					t.Fatalf("%s: refined range [%d, %d) has sort value %d at row %d\nlayout %v", q, r.Start, r.End, v, i, g.Layout())
				}
			}
		}
	}
	var want uint64
	for i := g.Start(); i < g.Start()+g.NumRows(); i++ {
		if matches(i) {
			want++
			if !covered[i-g.Start()] {
				t.Fatalf("%s: matching row %d is in no range\nlayout %v", q, i, g.Layout())
			}
		}
	}
	if got, _ := execute(g, q); got.Count != want {
		t.Fatalf("%s: Execute counted %d, want %d\nlayout %v", q, got.Count, want, g.Layout())
	}
}

func TestPlanRangesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	grids := planGrids(t)
	// One context across grids, as a pooled one is: nothing a query leaves
	// in it may change the next query's plan.
	ctx := NewExecContext()
	spec := make([]byte, 24)
	for i := 0; i < 2000; i++ {
		pg := grids[rng.Intn(len(grids))]
		n := 3 * rng.Intn(len(spec)/3+1)
		rng.Read(spec[:n])
		checkPlan(t, pg, planQuery(pg, spec[:n]), ctx)
	}
	// Every dim and every way of drawing its bounds, one filter at a time.
	for _, pg := range grids {
		for d := 0; d < pg.st.NumDims(); d++ {
			for kind := 0; kind < 24; kind++ {
				for _, at := range []byte{0, 77, 128, 255} {
					checkPlan(t, pg, planQuery(pg, []byte{byte(d), byte(kind), at}), ctx)
				}
			}
		}
	}
}

func FuzzPlanRanges(f *testing.F) {
	grids := planGrids(f)
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{1, 0, 9, 3, 4, 200, 0, 3, 50})
	f.Add(uint8(2), []byte{1, 4, 17, 2, 2, 90, 4, 1, 12, 2, 3, 128})
	f.Add(uint8(3), []byte{4, 12, 60, 4, 20, 61, 0, 5, 0})
	f.Add(uint8(4), []byte{0, 1, 100, 0, 2, 40, 1, 6, 0, 3, 7, 0})
	f.Add(uint8(5), []byte{2, 3, 100})
	f.Add(uint8(6), []byte{0, 3, 60, 2, 2, 200})
	f.Add(uint8(7), []byte{3, 0, 0, 1, 3, 90})
	f.Fuzz(func(t *testing.T, which uint8, spec []byte) {
		pg := grids[int(which)%len(grids)]
		q := planQuery(pg, spec)
		checkPlan(t, pg, q, NewExecContext())
		checkMatchesReference(t, pg, q, NewExecContext(), &refPlanner{})
	})
}

// TestPlanRangesAllocs pins planning at zero allocations once a context and
// the destination have grown to the query's size.
func TestPlanRangesAllocs(t *testing.T) {
	ctx := NewExecContext()
	for _, pg := range planGrids(t) {
		lo, hi := pg.st.MinMax(3)
		q := query.NewCount(
			query.Filter{Dim: 0, Lo: 20000, Hi: 70000},
			query.Filter{Dim: 3, Lo: lo + (hi-lo)/5, Hi: hi - (hi-lo)/3},
			query.Filter{Dim: 4, Lo: 2, Hi: 5},
		)
		dst, _ := pg.g.PlanRanges(q, ctx, nil)
		if n := testing.AllocsPerRun(100, func() { dst, _ = pg.g.PlanRanges(q, ctx, dst[:0]) }); n != 0 {
			t.Errorf("layout %v: %v allocations per PlanRanges, want 0", pg.g.Layout(), n)
		}
	}
}

// planBench is one planner benchmark shape: a grid and a query on it.
type planBench struct {
	name string
	g    *Grid
	q    query.Query
}

// planBenchShapes builds the planner benchmark shapes over 60 000 rows of
// six dims, uniform in [0, 2^20), except that d3 tracks d0 within 2^16:
//   - fig7: most dims with one partition (one of them filtered), two
//     partitioned dims and a sort dim the query also filters, so
//     refinement decides thousands of cells per query, as on Taxi Fig 7;
//   - sortmiss: 5 000 cells and a sort filter above every sort value of
//     the grid, as a dropoff-window query meets a region of older trips;
//   - onecond: 3 120 cells and one filtered grid dim, d3|d0, with one
//     partition over a two-partition base, as high-pax-trips meets a
//     region partitioned that way.
func planBenchShapes(b *testing.B) []planBench {
	rng := rand.New(rand.NewSource(7))
	const n, nd = 60000, 6
	cols := make([][]int64, nd)
	for j := range cols {
		cols[j] = make([]int64, n)
		for i := range cols[j] {
			cols[j][i] = rng.Int63n(1 << 20)
		}
	}
	for i := range cols[3] {
		cols[3][i] = cols[0][i] + rng.Int63n(1<<16)
	}
	s, err := colstore.FromColumns(cols, nil)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	build := func(l Layout) *Grid {
		g, ordered, err := Build(s, rows, l)
		if err != nil {
			b.Fatal(err)
		}
		return g.Bind(s.Gather(ordered, nil), 0)
	}
	cond := IndependentSkeleton(nd)
	cond[3] = DimStrategy{Kind: Conditional, Other: 0}
	return []planBench{
		{"fig7", build(NewLayout(IndependentSkeleton(nd), []int{1, 1, 1, 34, 42, 1}, 5)), query.NewCount(
			query.Filter{Dim: 0, Lo: 1 << 18, Hi: 3 << 18},
			query.Filter{Dim: 3, Lo: 1 << 18, Hi: 5 << 17},
			query.Filter{Dim: 4, Lo: 1 << 17, Hi: 1 << 19},
			query.Filter{Dim: 5, Lo: 1 << 19, Hi: 5 << 17},
		)},
		{"sortmiss", build(NewLayout(IndependentSkeleton(nd), []int{1, 50, 100, 1, 1, 1}, 5)), query.NewCount(
			query.Filter{Dim: 1, Lo: 1 << 18, Hi: 3 << 18},
			query.Filter{Dim: 2, Lo: 1 << 17, Hi: 7 << 17},
			query.Filter{Dim: 5, Lo: 1 << 20, Hi: 5 << 18},
		)},
		{"onecond", build(NewLayout(cond, []int{2, 40, 39, 1, 1, 1}, 5)), query.NewCount(
			query.Filter{Dim: 3, Lo: 1 << 18, Hi: 3 << 18},
		)},
	}
}

// BenchmarkPlanRanges plans each planBenchShapes shape.
func BenchmarkPlanRanges(b *testing.B) {
	for _, pb := range planBenchShapes(b) {
		b.Run(pb.name, func(b *testing.B) {
			ctx := NewExecContext()
			dst, _ := pb.g.PlanRanges(pb.q, ctx, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = pb.g.PlanRanges(pb.q, ctx, dst[:0])
			}
			b.ReportMetric(float64(len(dst)), "ranges/op")
		})
	}
}

// BenchmarkPlanRangesReference plans the shapes the reference planner
// spends its time on, sortmiss and onecond, with the reference planner;
// CI holds its ns/op to a multiple of BenchmarkPlanRanges'.
func BenchmarkPlanRangesReference(b *testing.B) {
	for _, pb := range planBenchShapes(b) {
		if pb.name == "fig7" {
			continue
		}
		b.Run(pb.name, func(b *testing.B) {
			ref := &refPlanner{}
			dst, _ := ref.plan(pb.g, pb.q, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = ref.plan(pb.g, pb.q, dst[:0])
			}
			b.ReportMetric(float64(len(dst)), "ranges/op")
		})
	}
}
