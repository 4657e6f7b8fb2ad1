package auggrid

import (
	"math/rand"
	"testing"

	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
)

// makeCorrelatedStore builds a 4-dim store: d0 uniform, d1 tightly linearly
// correlated with d0, d2 generically correlated with d0, d3 independent.
func makeCorrelatedStore(n int, rng *rand.Rand) *colstore.Store {
	cols := make([][]int64, 4)
	for j := range cols {
		cols[j] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		x := rng.Int63n(100000)
		cols[0][i] = x
		cols[1][i] = 2*x + 1000 + rng.Int63n(500)         // tight monotone
		cols[2][i] = x/10 + int64(rng.NormFloat64()*3000) // loose correlation
		cols[3][i] = rng.Int63n(50000)                    // independent
	}
	s, err := colstore.FromColumns(cols, nil)
	if err != nil {
		panic(err)
	}
	return s
}

func randomQuery(s *colstore.Store, rng *rand.Rand) query.Query {
	var fs []query.Filter
	for j := 0; j < s.NumDims(); j++ {
		if rng.Float64() < 0.5 {
			continue
		}
		lo, hi := s.MinMax(j)
		span := hi - lo
		a := lo + rng.Int63n(span+1)
		w := span / int64(2+rng.Intn(20))
		fs = append(fs, query.Filter{Dim: j, Lo: a, Hi: a + w})
	}
	if len(fs) == 0 {
		fs = append(fs, query.Filter{Dim: 0, Lo: 0, Hi: 50000})
	}
	if rng.Intn(2) == 0 {
		return query.NewCount(fs...)
	}
	return query.NewSum(rng.Intn(s.NumDims()), fs...)
}

// buildGrid builds a standalone grid over the full store.
func buildGrid(t *testing.T, s *colstore.Store, l Layout) (*Grid, *colstore.Store) {
	t.Helper()
	rows := make([]int, s.NumRows())
	for i := range rows {
		rows[i] = i
	}
	g, ordered, err := Build(s, rows, l)
	if err != nil {
		t.Fatalf("Build(%v): %v", l, err)
	}
	clone := s.Gather(ordered, nil)
	return g.Bind(clone, 0), clone
}

func checkAgainstFullScan(t *testing.T, s *colstore.Store, g *Grid, qs []query.Query, label string) {
	t.Helper()
	full := index.NewFullScan(s)
	for i, q := range qs {
		want := full.Execute(q)
		got, _ := execute(g, q)
		if got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("%s query %d (%s): got (count=%d sum=%d), want (count=%d sum=%d)\nlayout: %v",
				label, i, q, got.Count, got.Sum, want.Count, want.Sum, g.Layout())
		}
	}
}

func TestGridIndependentMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := makeCorrelatedStore(5000, rng)
	l := NewLayout(IndependentSkeleton(4), []int{8, 4, 4, 2}, -1)
	g, st := buildGrid(t, s, l)
	qs := make([]query.Query, 50)
	for i := range qs {
		qs[i] = randomQuery(s, rng)
	}
	checkAgainstFullScan(t, st, g, qs, "independent")
}

func TestGridWithSortDimMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := makeCorrelatedStore(5000, rng)
	l := NewLayout(IndependentSkeleton(4), []int{8, 4, 4, 1}, 3)
	g, st := buildGrid(t, s, l)
	qs := make([]query.Query, 50)
	for i := range qs {
		qs[i] = randomQuery(s, rng)
	}
	checkAgainstFullScan(t, st, g, qs, "sortdim")
}

func TestGridFunctionalMappingMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := makeCorrelatedStore(5000, rng)
	sk := IndependentSkeleton(4)
	sk[1] = DimStrategy{Kind: Mapped, Other: 0} // d1 tightly correlated with d0
	l := NewLayout(sk, []int{16, 1, 4, 2}, -1)
	g, st := buildGrid(t, s, l)
	qs := make([]query.Query, 80)
	for i := range qs {
		qs[i] = randomQuery(s, rng)
	}
	checkAgainstFullScan(t, st, g, qs, "mapped")
}

func TestGridConditionalMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := makeCorrelatedStore(5000, rng)
	sk := IndependentSkeleton(4)
	sk[2] = DimStrategy{Kind: Conditional, Other: 0}
	l := NewLayout(sk, []int{8, 2, 6, 2}, -1)
	g, st := buildGrid(t, s, l)
	qs := make([]query.Query, 80)
	for i := range qs {
		qs[i] = randomQuery(s, rng)
	}
	checkAgainstFullScan(t, st, g, qs, "conditional")
}

func TestGridCombinedSkeletonMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := makeCorrelatedStore(5000, rng)
	sk := IndependentSkeleton(4)
	sk[1] = DimStrategy{Kind: Mapped, Other: 0}
	sk[2] = DimStrategy{Kind: Conditional, Other: 0}
	l := NewLayout(sk, []int{8, 1, 6, 1}, 3)
	g, st := buildGrid(t, s, l)
	qs := make([]query.Query, 80)
	for i := range qs {
		qs[i] = randomQuery(s, rng)
	}
	checkAgainstFullScan(t, st, g, qs, "combined")
}

// TestGridRandomLayoutsProperty is the big property test: any valid layout
// must answer any query exactly like a full scan.
func TestGridRandomLayoutsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := makeCorrelatedStore(3000, rng)
	for trial := 0; trial < 30; trial++ {
		l := randomLayout(4, rng)
		if l.Validate() != nil {
			continue
		}
		g, st := buildGrid(t, s, l)
		fullT := index.NewFullScan(st)
		for i := 0; i < 20; i++ {
			q := randomQuery(s, rng)
			want := fullT.Execute(q)
			got, _ := execute(g, q)
			if got.Count != want.Count || got.Sum != want.Sum {
				t.Fatalf("trial %d query %s: got (%d, %d), want (%d, %d)\nlayout: %v",
					trial, q, got.Count, got.Sum, want.Count, want.Sum, l)
			}
		}
	}
}

func randomLayout(d int, rng *rand.Rand) Layout {
	sk := IndependentSkeleton(d)
	// Random sort dim (or none).
	sortDim := rng.Intn(d+1) - 1
	// Random strategy per dim with restrictions applied greedily.
	for j := 0; j < d; j++ {
		if j == sortDim {
			continue
		}
		switch rng.Intn(3) {
		case 1: // mapped
			o := rng.Intn(d)
			if o != j && o != sortDim && sk[o].Kind != Mapped {
				referenced := false
				for i, st := range sk {
					if i != j && st.Kind != Independent && st.Other == j {
						referenced = true
					}
				}
				if !referenced {
					sk[j] = DimStrategy{Kind: Mapped, Other: o}
				}
			}
		case 2: // conditional
			o := rng.Intn(d)
			if o != j && o != sortDim && sk[o].Kind == Independent {
				referenced := false
				for i, st := range sk {
					if i != j && st.Kind == Conditional && st.Other == j {
						referenced = true
					}
				}
				if !referenced && sk[j].Kind == Independent {
					sk[j] = DimStrategy{Kind: Conditional, Other: o}
				}
			}
		}
	}
	p := make([]int, d)
	for j := range p {
		p[j] = 1 + rng.Intn(8)
	}
	return NewLayout(sk, p, sortDim)
}

func TestGridEmptyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := makeCorrelatedStore(100, rng)
	l := NewLayout(IndependentSkeleton(4), []int{2, 2, 2, 2}, -1)
	g, _, err := Build(s.Clone(), nil, l)
	if err != nil {
		t.Fatal(err)
	}
	g = g.Bind(s, 0)
	res, _ := execute(g, query.NewCount(query.Filter{Dim: 0, Lo: 0, Hi: 100}))
	if res.Count != 0 {
		t.Errorf("empty grid count = %d, want 0", res.Count)
	}
}

func TestGridCellCountMatchesLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := makeCorrelatedStore(2000, rng)
	l := NewLayout(IndependentSkeleton(4), []int{3, 4, 5, 2}, -1)
	g, _ := buildGrid(t, s, l)
	if g.NumCells() != 3*4*5*2 {
		t.Errorf("cells = %d, want %d", g.NumCells(), 3*4*5*2)
	}
	if l.NumCells() != g.NumCells() {
		t.Errorf("layout cells %d != grid cells %d", l.NumCells(), g.NumCells())
	}
}

func TestGridOffsetsPartitionAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := makeCorrelatedStore(2000, rng)
	for trial := 0; trial < 10; trial++ {
		l := randomLayout(4, rng)
		g, _ := buildGrid(t, s, l)
		if g.offsets[0] != 0 {
			t.Fatalf("first offset = %d, want 0", g.offsets[0])
		}
		if g.offsets[len(g.offsets)-1] != 2000 {
			t.Fatalf("last offset = %d, want 2000", g.offsets[len(g.offsets)-1])
		}
		for i := 1; i < len(g.offsets); i++ {
			if g.offsets[i] < g.offsets[i-1] {
				t.Fatalf("offsets not monotone at %d", i)
			}
		}
	}
}

// TestGridEquallySizedCellsUnderCorrelation checks the core claim of §5:
// with a functional mapping, the (remaining) grid has balanced cells even
// though d0 and d1 are tightly correlated, whereas independent partitioning
// of both leaves many cells empty.
func TestGridEquallySizedCellsUnderCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := makeCorrelatedStore(20000, rng)

	indep := NewLayout(IndependentSkeleton(4), []int{8, 8, 1, 1}, -1)
	gi, _ := buildGrid(t, s, indep)
	emptyIndep := countEmptyCells(gi)

	sk := IndependentSkeleton(4)
	sk[1] = DimStrategy{Kind: Mapped, Other: 0}
	mapped := NewLayout(sk, []int{64, 1, 1, 1}, -1)
	gm, _ := buildGrid(t, s, mapped)
	emptyMapped := countEmptyCells(gm)

	// Independent partitioning of tightly correlated dims leaves most of
	// the 8x8 plane empty; the mapped grid's 64 cells are all occupied.
	if emptyIndep <= gi.NumCells()/2 {
		t.Errorf("expected >half empty cells under independent partitioning, got %d/%d",
			emptyIndep, gi.NumCells())
	}
	if emptyMapped != 0 {
		t.Errorf("mapped grid should have no empty cells, got %d/%d", emptyMapped, gm.NumCells())
	}
}

func countEmptyCells(g *Grid) int {
	empty := 0
	for c := 0; c < g.NumCells(); c++ {
		if g.offsets[c+1] == g.offsets[c] {
			empty++
		}
	}
	return empty
}
