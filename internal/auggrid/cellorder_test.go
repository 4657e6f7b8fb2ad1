package auggrid

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/colstore"
)

// cellOrderStable is how Build ordered rows before orderCells: one stable
// comparison sort of the rows' positions by (cell, sort-dim value). It is
// kept as the oracle orderCells must reproduce exactly.
func cellOrderStable(rows, cells []int, sortCol []int64, numCells int) (ordered []int, offsets []uint32) {
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cells[order[a]], cells[order[b]]
		if ca != cb {
			return ca < cb
		}
		if sortCol != nil {
			return sortCol[rows[order[a]]] < sortCol[rows[order[b]]]
		}
		return false
	})
	ordered = make([]int, 0, len(rows))
	for _, o := range order {
		ordered = append(ordered, rows[o])
	}
	offsets = make([]uint32, numCells+1)
	for _, c := range cells {
		offsets[c+1]++
	}
	for c := 1; c <= numCells; c++ {
		offsets[c] += offsets[c-1]
	}
	return ordered, offsets
}

// cellOrderInput draws n rows of a column twice as long, each assigned to
// one of numCells cells. Cells come from a random subset, so some stay
// empty; values come from a span of 1-5 (heavy ties) or 2^40.
func cellOrderInput(rng *rand.Rand, n, numCells int) (rows, cells []int, col []int64) {
	span := int64(1 + rng.Intn(5))
	if rng.Intn(2) == 0 {
		span = 1 << 40
	}
	col = make([]int64, 2*n+1)
	for i := range col {
		col[i] = rng.Int63n(span) - span/2
	}
	rows = rng.Perm(len(col))[:n]
	live := rng.Perm(numCells)[:1+rng.Intn(numCells)]
	cells = make([]int, n)
	for i := range cells {
		cells[i] = live[rng.Intn(len(live))]
	}
	return rows, cells, col
}

func TestOrderCellsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n, numCells := rng.Intn(3000), 1+rng.Intn(400)
		rows, cells, col := cellOrderInput(rng, n, numCells)
		for _, sortCol := range [][]int64{nil, col} {
			want, wantOff := cellOrderStable(rows, cells, sortCol, numCells)
			got, gotOff := orderCells(rows, cells, sortCol, numCells)
			if !slices.Equal(got, want) || !slices.Equal(gotOff, wantOff) {
				t.Fatalf("trial %d (n=%d cells=%d sorted=%v): order or offsets differ from the stable sort",
					trial, n, numCells, sortCol != nil)
			}
		}
	}
}

// tiedStore has a tight pair with ~2% wild outliers (d1 ≈ 2*d0), two
// low-cardinality dims that tie heavily (d2, d4) and one loosely
// correlated dim (d3).
func tiedStore(n int, rng *rand.Rand) *colstore.Store {
	cols := make([][]int64, 5)
	for j := range cols {
		cols[j] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		x := rng.Int63n(100000)
		y := 2*x + rng.Int63n(400)
		if rng.Float64() < 0.02 {
			y = rng.Int63n(1_000_000)
		}
		cols[0][i] = x
		cols[1][i] = y
		cols[2][i] = rng.Int63n(4)
		cols[3][i] = x/10 + int64(rng.NormFloat64()*3000)
		cols[4][i] = rng.Int63n(10)
	}
	st, err := colstore.FromColumns(cols, nil)
	if err != nil {
		panic(err)
	}
	return st
}

// TestBuildCellOrderMatchesStableSort checks Build's whole row order over
// random layouts — sort dim on and off, heavy ties, empty cells, outlier
// buffers — against the stable-sort oracle: the inliers in grid order, the
// offsets, then the outliers in input order.
func TestBuildCellOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	st := tiedStore(4000, rng)
	for trial := 0; trial < 120; trial++ {
		l := randomLayout(st.NumDims(), rng)
		if rng.Intn(2) == 0 {
			l.OutlierFrac = 0.05
		}
		if l.Validate() != nil {
			continue
		}
		// A shuffled subset of the rows, so positions differ from row ids.
		rows := rng.Perm(st.NumRows())[:1+rng.Intn(st.NumRows())]
		g, ordered, err := Build(st, rows, l)
		if err != nil {
			t.Fatal(err)
		}
		nIn := len(ordered) - g.nOutliers
		isOut := make(map[int]bool, g.nOutliers)
		for _, r := range ordered[nIn:] {
			isOut[r] = true
		}
		var inliers, outliers []int
		for _, r := range rows {
			if isOut[r] {
				outliers = append(outliers, r)
			} else {
				inliers = append(inliers, r)
			}
		}
		cells := make([]int, len(inliers))
		for i, r := range inliers {
			cells[i] = g.cellOfRow(st, r)
		}
		var sortCol []int64
		if l.SortDim >= 0 {
			sortCol = st.Column(l.SortDim)
		}
		want, wantOff := cellOrderStable(inliers, cells, sortCol, g.NumCells())
		if !slices.Equal(ordered[:nIn], want) || !slices.Equal(g.offsets, wantOff) ||
			!slices.Equal(ordered[nIn:], outliers) {
			t.Fatalf("trial %d, layout %v (outliers %d): Build's order differs from the stable sort",
				trial, l, g.nOutliers)
		}
	}
}

// cellOrderBenchInput is a 12k-row region spread over 300 cells with a
// sort dim, the shape the CI gate measures.
func cellOrderBenchInput() (rows, cells []int, col []int64) {
	rng := rand.New(rand.NewSource(3))
	rows = rng.Perm(24000)[:12000]
	cells = make([]int, len(rows))
	for i := range cells {
		cells[i] = rng.Intn(300)
	}
	col = make([]int64, 24000)
	for i := range col {
		col[i] = rng.Int63n(1 << 40)
	}
	return rows, cells, col
}

// BenchmarkCellOrder orders a region's rows the way Build does: a counting
// sort on the cell ids, then each cell sorted by (value, position).
func BenchmarkCellOrder(b *testing.B) {
	rows, cells, col := cellOrderBenchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderCells(rows, cells, col, 300)
	}
}

// BenchmarkCellOrderStable orders the same rows with the stable-sort
// oracle; CI holds its ns/op to at least 3x BenchmarkCellOrder's.
func BenchmarkCellOrderStable(b *testing.B) {
	rows, cells, col := cellOrderBenchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cellOrderStable(rows, cells, col, 300)
	}
}
