package auggrid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datasets"
)

// pinnedBuild is Build over rows of st with like's boundaries and
// mappings pinned rather than fitted: it computes the per-dim ranges,
// sends the rows outside a mapping's error band to the outlier buffer (the
// rows robustFit marks, for a band it trimmed), and runs Build's phase 3.
// A fold must equal it in every field but the fit's row count, which it
// takes from like, and in the row order.
func pinnedBuild(st *colstore.Store, rows []int, like *Grid) (*Grid, []int) {
	d := st.NumDims()
	g := &Grid{
		layout:     like.layout,
		n:          len(rows),
		fitted:     like.fitted,
		bounds:     like.bounds,
		condBounds: like.condBounds,
		mappings:   like.mappings,
		dimLo:      make([]int64, d),
		dimHi:      make([]int64, d),
	}
	g.index()
	for j := 0; j < d; j++ {
		g.dimLo[j], g.dimHi[j] = minMaxRows(st.Column(j), rows)
	}
	var inliers, outliers []int
	for _, r := range rows {
		if g.outsideBand(st, r) {
			outliers = append(outliers, r)
		} else {
			inliers = append(inliers, r)
		}
	}
	g.nOutliers = len(outliers)
	return g, g.cluster(st, inliers, outliers)
}

// outsideBand reports whether row r of st lies outside a mapping's band.
func (g *Grid) outsideBand(st *colstore.Store, r int) bool {
	for j, s := range g.layout.Skeleton {
		if s.Kind == Mapped {
			lr := g.mappings[j]
			res := float64(st.Value(r, s.Other)) - lr.Predict(float64(st.Value(r, j)))
			if res < lr.ErrLo || res > lr.ErrHi {
				return true
			}
		}
	}
	return false
}

// checkSlabs verifies the invariant a plan's exact ranges rest on: every
// inlier row of bound grid g lies inside each of its partition slabs
// [bounds[k], bounds[k+1]) (the top one closed when it saturated at
// MaxInt64), and each cell's rows ascend in the sort dim.
func checkSlabs(g *Grid) error {
	l := &g.layout
	part := make([]int, len(l.Skeleton))
	for c := 0; c+1 < len(g.offsets); c++ {
		rem := c
		for k, j := range g.gridDims {
			part[j], rem = rem/g.strides[k], rem%g.strides[k]
		}
		for i := int(g.offsets[c]); i < int(g.offsets[c+1]); i++ {
			for _, j := range g.gridDims {
				b := g.bounds[j]
				if s := l.Skeleton[j]; s.Kind == Conditional {
					b = g.condBounds[j][part[s.Other]]
				}
				v, k := g.store.Value(g.start+i, j), part[j]
				above := v >= b[k+1] && !(k+1 == len(b)-1 && b[k+1] == math.MaxInt64)
				if v < b[k] || above {
					return fmt.Errorf("cell %d row %d: dim %d value %d outside slab %d [%d, %d)", c, i, j, v, k, b[k], b[k+1])
				}
			}
			if sd := l.SortDim; sd >= 0 && i > int(g.offsets[c]) && g.store.Value(g.start+i, sd) < g.store.Value(g.start+i-1, sd) {
				return fmt.Errorf("cell %d row %d: sort dim descends", c, i)
			}
		}
	}
	return nil
}

// foldRows draws a batch of new rows for grid g's region: half copies of
// its inlier rows (ties in every dim, inside every band), half rows of
// fresh, a handful of them pushed past every boundary, low and high.
func foldRows(g *Grid, fresh *colstore.Store, n int, rng *rand.Rand) [][]int64 {
	st := g.store
	rows := make([][]int64, n)
	for i := range rows {
		if i%2 == 0 {
			rows[i] = st.Row(g.start+rng.Intn(int(g.offsets[len(g.offsets)-1])), nil)
		} else {
			rows[i] = fresh.Row(rng.Intn(fresh.NumRows()), nil)
		}
	}
	for i := 0; i < 6; i++ {
		row := rows[rng.Intn(n)]
		j := rng.Intn(len(row))
		lo, hi := st.MinMax(j)
		row[j] = []int64{lo - 1 - rng.Int63n(1000), hi + 1 + rng.Int63n(1000)}[i%2]
	}
	return rows
}

// storeOf lays rows out as a column store of width d (rows may be empty).
func storeOf(rows [][]int64, d int) *colstore.Store {
	cols := make([][]int64, d)
	for j := range cols {
		cols[j] = make([]int64, len(rows))
		for i, row := range rows {
			cols[j][i] = row[j]
		}
	}
	st, _ := colstore.FromColumns(cols, nil)
	return st
}

// TestFoldMatchesPinnedBuild is the fold's differential test: a fold of
// a bound grid equals Build over (the old clustered rows less the cut ++
// the new rows) with the fold's boundaries and mappings pinned, in every
// grid field, the offsets and the row order, and a folded grid passes
// FromSnapshot's checks and keeps every row inside its slabs. It runs a
// cut alone, a cut with inserts and inserts alone, each followed by a
// second fold of the folded grid, on Taxi and TPC-H over hand-made
// layouts (mapped and conditional dims, with and without a sort dim, with
// an outlier buffer) and random ones. A fold turned down must be one the
// growth, shrink or outlier rule turns down.
func TestFoldMatchesPinnedBuild(t *testing.T) {
	mixed := IndependentSkeleton(9)
	mixed[datasets.TaxiFare] = DimStrategy{Kind: Mapped, Other: datasets.TaxiDistance}
	mixed[datasets.TaxiDropoffZone] = DimStrategy{Kind: Conditional, Other: datasets.TaxiPickupZone}
	taxiP := []int{1, 4, 6, 1, 3, 1, 3, 5, 4}
	sorted := NewLayout(mixed, taxiP, datasets.TaxiPickupTime)
	unsorted := NewLayout(mixed, taxiP, -1)
	robust := sorted.Clone()
	robust.OutlierFrac = 0.05

	folded, turnedDown := 0, 0
	for _, c := range []struct {
		ds, fresh *datasets.Dataset
		layouts   []Layout
	}{
		{datasets.Taxi(12_000, 3), datasets.Taxi(4_000, 30), []Layout{sorted, unsorted, robust}},
		{datasets.TPCH(12_000, 4), datasets.TPCH(4_000, 40), nil},
	} {
		rng := rand.New(rand.NewSource(11))
		layouts := c.layouts
		for len(layouts) < len(c.layouts)+12 {
			layouts = append(layouts, pricingLayout(c.ds.Dims(), rng))
		}
		d := c.ds.Dims()
		for li, l := range layouts {
			g, ordered, err := Build(c.ds.Store, allRowsOf(c.ds.Store), l)
			if err != nil {
				t.Fatal(err)
			}
			st := c.ds.Store.Gather(ordered, nil)
			for _, op := range []string{"cut", "cut+insert", "insert"} {
				name := fmt.Sprintf("%s layout %d %v (outlier frac %v) %s", c.ds.Name, li, l, l.OutlierFrac, op)
				cur, curStore := g.Bind(st, 0), st
				for round := 0; round < 2; round++ {
					var drop []int
					var add [][]int64
					if round == 0 && op != "insert" {
						dim := rng.Intn(d)
						vals := slices.Sorted(slices.Values(curStore.Column(dim)))
						lo, hi := vals[len(vals)/3], vals[len(vals)/2]
						for i, v := range curStore.Column(dim) {
							if v >= lo && v <= hi {
								drop = append(drop, i)
							}
						}
					}
					if round == 1 || op != "cut" {
						add = foldRows(cur, c.fresh.Store, 500+rng.Intn(1500), rng)
					}
					addStore := storeOf(add, d)
					cols := make([][]int64, d)
					fg := cur.Fold(drop, addStore, cols)

					// The staged rows: the survivors in clustered order, then
					// the new rows.
					var stage [][]int64
					for i := 0; i < curStore.NumRows(); i++ {
						if _, dropped := slices.BinarySearch(drop, i); !dropped {
							stage = append(stage, curStore.Row(i, nil))
						}
					}
					stage = append(stage, add...)
					staged := storeOf(stage, d)
					like := fg
					if like == nil {
						like = cur // for its outlier count: a fold turned down widens no band
					}
					want, wantRows := pinnedBuild(staged, allRowsOf(staged), like)
					if fg == nil {
						n := len(stage)
						overCap := l.OutlierFrac > 0 && want.nOutliers > int(l.OutlierFrac*float64(n))
						if n <= relearnGrowth*cur.fitted && relearnGrowth*n >= cur.fitted && !overCap {
							t.Fatalf("%s round %d: fold turned down with %d rows fitted over %d and %d outliers", name, round, n, cur.fitted, want.nOutliers)
						}
						turnedDown++
						break
					}
					folded++
					if len(cols[0]) != len(stage) {
						t.Fatalf("%s round %d: fold wrote %d rows, want %d", name, round, len(cols[0]), len(stage))
					}
					if field := gridDiff(fg, want); field != "" {
						t.Fatalf("%s round %d: fold differs from the pinned build in %q", name, round, field)
					}
					wantStore := staged.Gather(wantRows, nil)
					for j := range cols {
						if !slices.Equal(cols[j], wantStore.Column(j)) {
							t.Fatalf("%s round %d: fold's row order differs from the pinned build's in dim %d", name, round, j)
						}
					}
					curStore, _ = colstore.FromColumns(cols, nil)
					cur = fg.Bind(curStore, 0)
					if _, err := FromSnapshot(cur.Snapshot(), curStore, 0); err != nil {
						t.Fatalf("%s round %d: folded grid's snapshot refused: %v", name, round, err)
					}
					if err := checkSlabs(cur); err != nil {
						t.Fatalf("%s round %d: %v", name, round, err)
					}
				}
			}
		}
	}
	t.Logf("%d folds, %d turned down", folded, turnedDown)
	if folded == 0 || turnedDown > folded/2 {
		t.Fatalf("%d folds, %d turned down", folded, turnedDown)
	}
}

// TestFoldTurnsDownAShrunkRegion checks the shrink half of the re-learn
// rule: a cut may leave a region with as few as one relearnGrowth-th of
// the rows its grid was fitted over and still fold, one row fewer and the
// region is built again, and the count holds across folds: a second cut
// is measured against the first fit, not the folded size.
func TestFoldTurnsDownAShrunkRegion(t *testing.T) {
	ds := datasets.Taxi(6_000, 5)
	l := NewLayout(IndependentSkeleton(9), []int{1, 4, 6, 1, 3, 1, 3, 5, 4}, datasets.TaxiPickupTime)
	g, ordered, err := Build(ds.Store, allRowsOf(ds.Store), l)
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Store.Gather(ordered, nil)
	g = g.Bind(st, 0)
	none := storeOf(nil, 9)
	upTo := func(n int) []int {
		drop := make([]int, n)
		for i := range drop {
			drop[i] = i
		}
		return drop
	}
	keepMin := (g.NumRows() + relearnGrowth - 1) / relearnGrowth
	if ng := g.Fold(upTo(g.NumRows()-keepMin), none, make([][]int64, 9)); ng == nil {
		t.Fatalf("a cut to %d of %d fitted rows was turned down", keepMin, g.NumRows())
	}
	if ng := g.Fold(upTo(g.NumRows()-keepMin+1), none, make([][]int64, 9)); ng != nil {
		t.Fatalf("a cut to %d of %d fitted rows was folded", keepMin-1, g.NumRows())
	}

	// Two cuts of a third each: the first folds, the second leaves a third
	// of the fit and is turned down.
	cols := make([][]int64, 9)
	ng := g.Fold(upTo(g.NumRows()/3), none, cols)
	if ng == nil {
		t.Fatalf("a cut of a third was turned down")
	}
	cut, err := colstore.FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	ng = ng.Bind(cut, 0)
	if again := ng.Fold(upTo(g.NumRows()/3), none, make([][]int64, 9)); again != nil {
		t.Fatalf("a second cut to a third of the fitted rows was folded (%d of %d)", again.NumRows(), g.NumRows())
	}
}
