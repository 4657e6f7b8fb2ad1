package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestExtremeValuesMatchFullScan builds every variant over columns holding
// math.MaxInt64 and math.MinInt64 beside ordinary values and checks each
// answer against a full scan. A partition boundary one past a column's
// maximum must not wrap when that maximum is MaxInt64, and a functional
// mapping's prediction for a huge input must saturate rather than overflow
// the int64 it is converted to. Training filters one, two or all three dims,
// so the optimizer builds independent, conditional and mapped layouts.
func TestExtremeValuesMatchFullScan(t *testing.T) {
	const n, d = 20000, 3
	rng := rand.New(rand.NewSource(1))
	cols := make([][]int64, d)
	for j := range cols {
		cols[j] = make([]int64, n)
		for i := range cols[j] {
			cols[j][i] = rng.Int63n(1000) - 500
		}
	}
	perm := rng.Perm(n)
	for _, r := range perm[:50] {
		cols[0][r] = math.MaxInt64
	}
	for _, r := range perm[50:100] {
		cols[1][r] = math.MinInt64
	}
	for _, r := range perm[100:150] {
		cols[2][r] = math.MaxInt64
	}
	st, err := colstore.FromColumns(cols, []string{"d0", "d1", "d2"})
	if err != nil {
		t.Fatal(err)
	}
	full := index.NewFullScan(st)

	// window draws a query filtering k dims (starting at a random one),
	// each over a window 100 values wide.
	window := func(k int) query.Query {
		j0 := rng.Intn(d)
		fs := make([]query.Filter, k)
		for i := range fs {
			lo := rng.Int63n(1000) - 500
			fs[i] = query.Filter{Dim: (j0 + i) % d, Lo: lo, Hi: lo + 99}
		}
		return query.NewCount(fs...)
	}
	for k := 1; k <= d; k++ {
		train := make([]query.Query, 200)
		for i := range train {
			train[i] = window(k)
		}
		var probe []query.Query
		for i := 0; i < 40; i++ {
			probe = append(probe, window(k))
		}
		for j := 0; j < d; j++ {
			probe = append(probe,
				query.NewCount(query.Filter{Dim: j, Lo: 400, Hi: query.NoHi}),
				query.NewCount(query.Filter{Dim: j, Lo: query.NoLo, Hi: -400}),
				query.NewCount(query.Filter{Dim: j, Lo: 223, Hi: 323}),
				query.NewSum((j+1)%d, query.Filter{Dim: j, Lo: 350, Hi: 450}),
				query.NewCount(query.Filter{Dim: j, Lo: 499, Hi: math.MaxInt64 - 1}),
				query.NewCount(query.Filter{Dim: j, Lo: query.NoLo, Hi: math.MaxInt64 - 1}),
				query.NewCount(query.Filter{Dim: j, Lo: math.MinInt64 + 1, Hi: query.NoHi}),
				query.NewCount(query.Filter{Dim: j, Lo: math.MaxInt64, Hi: math.MaxInt64}),
				query.NewCount(query.Filter{Dim: j, Lo: math.MinInt64, Hi: math.MinInt64}),
			)
		}
		for _, v := range []Variant{FullTsunami, AugGridOnly, GridTreeOnly, Flood} {
			t.Run(fmt.Sprintf("%ddims/%s", k, v), func(t *testing.T) {
				cfg := Config{
					Variant: v,
					Grid: auggrid.OptimizeConfig{
						Eval:     auggrid.EvalConfig{SampleSize: 512, MaxQueries: 20},
						MaxIters: 2,
					},
				}
				idx := Build(st, train, cfg)
				wrong := 0
				for i, q := range probe {
					got, want := idx.Execute(q), full.Execute(q)
					if got.Count == want.Count && got.Sum == want.Sum {
						continue
					}
					if wrong++; wrong <= 3 {
						t.Errorf("query %d (%s): got (count=%d sum=%d), want (count=%d sum=%d)",
							i, q, got.Count, got.Sum, want.Count, want.Sum)
					}
				}
				if wrong > 0 {
					t.Errorf("%d of %d queries wrong; layout:\n%s", wrong, len(probe), idx.DebugRegions())
				}
			})
		}
	}
}

// layoutIndex builds a one-region index over st whose grid is laid out as
// l, with no layout search, so a test decides which strategies a merge
// meets.
func layoutIndex(t *testing.T, st *colstore.Store, l auggrid.Layout) *Tsunami {
	t.Helper()
	tree := singleRegionTree(st, nil)
	g, ordered, err := auggrid.Build(st, tree.Regions[0].Rows, l)
	if err != nil {
		t.Fatal(err)
	}
	tree.Regions[0].Rows = nil
	cfg := Config{Variant: AugGridOnly}
	cfg.fill()
	store := st.Gather(ordered, nil)
	return &Tsunami{
		cfg:    cfg,
		store:  store,
		tree:   tree,
		grids:  []*auggrid.Grid{g.Bind(store, 0)},
		bounds: [][2]int{{0, store.NumRows()}},
	}
}

// TestExtremeValuesThroughFold inserts rows that fall outside a grid's
// fitted tables, merges them, and merges a second batch into the merged
// index: the fold must widen what they fall outside of, or an exact range
// counts a row it never checks, or a mapped filter prunes a row away. The
// first batch has rows below and above every boundary (some in a
// non-empty base partition, some past a conditional dim's boundaries), a
// row in a base partition that is empty, so its conditional boundaries
// are all zero, and a row far outside the mapping's error band; the
// second has rows at MinInt64 and MaxInt64 in each dim. The grid is laid
// out by hand: d0 is the base of d1 and holds two values, which leaves
// base partitions empty, d2 is mapped onto d3, and d4 is the sort dim or
// a plain one. After each insert and each merge, flat and grouped answers
// must equal the oracle's, on filters that end on the merged grid's
// boundaries (widened ones included) and on the inserted values.
func TestExtremeValuesThroughFold(t *testing.T) {
	const n, d = 20000, 5
	rng := rand.New(rand.NewSource(5))
	cols := make([][]int64, d)
	for j := range cols {
		cols[j] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		cols[0][i] = 100 * rng.Int63n(2)
		cols[1][i] = rng.Int63n(1000)
		cols[2][i] = rng.Int63n(10000)
		cols[3][i] = 2*cols[2][i] + rng.Int63n(11) - 5
		cols[4][i] = rng.Int63n(1000)
	}
	names := []string{"d0", "d1", "d2", "d3", "d4"}
	st, err := colstore.FromColumns(cols, names)
	if err != nil {
		t.Fatal(err)
	}
	ordinary := func(k int) [][]int64 {
		rows := make([][]int64, k)
		for i := range rows {
			rows[i] = st.Row(rng.Intn(n), nil)
		}
		return rows
	}
	// The rows that fall outside, per batch; each batch also carries
	// ordinary rows.
	special := [][][]int64{{
		{50, -500, 5000, 10000, -300},    // below d1's and d4's boundaries
		{150, 5000, 5000, 10000, 5000},   // above d0's, d1's and d4's
		{-1000, -900, -800, -1600, -700}, // below every boundary
		{9000, 9000, 19000, 38000, 9000}, // above every boundary
		{-7, 400, 3000, 6000, 10},        // in d0's empty first partition
		{-7, -40, 3000, 6000, 10},        // there too, below zero
		{0, 500, 500, 4000, 500},         // far above the band of d2 → d3
		{0, 500, 9000, 100, 500},         // far below it
	}, nil}
	for j := 0; j < d; j++ {
		for _, v := range []int64{math.MinInt64, math.MaxInt64} {
			row := st.Row(rng.Intn(n), nil)
			row[j] = v
			special[1] = append(special[1], row)
		}
	}
	batches := [][][]int64{append(ordinary(200), special[0]...), append(ordinary(100), special[1]...)}

	sk := auggrid.IndependentSkeleton(d)
	sk[1] = auggrid.DimStrategy{Kind: auggrid.Conditional, Other: 0}
	sk[2] = auggrid.DimStrategy{Kind: auggrid.Mapped, Other: 3}
	robust := auggrid.NewLayout(sk, []int{4, 3, 1, 3, 1}, 4)
	robust.OutlierFrac = 0.01
	for _, l := range []auggrid.Layout{
		auggrid.NewLayout(sk, []int{4, 3, 1, 3, 2}, -1),
		auggrid.NewLayout(sk, []int{4, 3, 1, 3, 1}, 4),
		robust,
	} {
		t.Run(fmt.Sprintf("%v/outliers%v", l, l.OutlierFrac), func(t *testing.T) {
			idx := layoutIndex(t, st, l)
			oracle := testutil.NewOracle(st)
			for b, batch := range batches {
				rows := make([][]int64, len(batch))
				for i, row := range batch {
					rows[i] = slices.Clone(row)
				}
				var err error
				if idx, err = idx.CopyWithInserts(rows); err != nil {
					t.Fatal(err)
				}
				oracle.Add(batch...)
				qs := boundaryQueries(idx, special[b], rng)
				oracle.Check(t, idx, qs)
				if idx, _, err = idx.MergedCopy(); err != nil {
					t.Fatal(err)
				}
				qs = boundaryQueries(idx, special[b], rng)
				oracle.Check(t, idx, qs)
				grouped := make([]query.Query, 0, len(qs))
				for i, q := range qs {
					grouped = append(grouped, q.By([]int{0, 1, 4}[i%3]))
				}
				oracle.CheckGrouped(t, "merged", func(q query.Query) colstore.GroupedResult { return idx.ExecuteGrouped(q) }, grouped)
			}
		})
	}
}

// boundaryQueries draws COUNTs and SUMs filtering one or two dims between
// values taken from idx's grids — every boundary, conditional ones
// included, and each dim's range — and from the rows given, each
// nudged by one or not, so filters end on the boundaries that make a
// range exact and just past them.
func boundaryQueries(idx *Tsunami, rows [][]int64, rng *rand.Rand) []query.Query {
	d := idx.store.NumDims()
	ends := make([][]int64, d)
	add := func(j int, vs ...int64) {
		for _, v := range vs {
			ends[j] = append(ends[j], v)
			if v > math.MinInt64 {
				ends[j] = append(ends[j], v-1)
			}
			if v < math.MaxInt64 {
				ends[j] = append(ends[j], v+1)
			}
		}
	}
	for _, g := range idx.grids {
		s := g.Snapshot()
		for j := 0; j < d; j++ {
			add(j, s.Bounds[j]...)
			for _, b := range s.CondBounds[j] {
				add(j, b...)
			}
			add(j, s.DimLo[j], s.DimHi[j])
		}
	}
	for _, row := range rows {
		for j, v := range row {
			add(j, v)
		}
	}
	var qs []query.Query
	for i := 0; i < 1000; i++ {
		var fs []query.Filter
		for _, j := range rng.Perm(d)[:1+rng.Intn(2)] {
			a, b := ends[j][rng.Intn(len(ends[j]))], ends[j][rng.Intn(len(ends[j]))]
			fs = append(fs, query.Filter{Dim: j, Lo: min(a, b), Hi: max(a, b)})
		}
		if i%2 == 0 {
			qs = append(qs, query.NewCount(fs...))
		} else {
			qs = append(qs, query.NewSum(rng.Intn(d), fs...))
		}
	}
	return qs
}
