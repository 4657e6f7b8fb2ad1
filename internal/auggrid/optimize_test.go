package auggrid

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
)

// optStore builds a store with one tight pair (d1 ≈ 2*d0), one generic
// pair (d2 correlated with d0), and one independent dim (d3).
func optStore(n int, seed int64) *colstore.Store {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, 4)
	for j := range cols {
		cols[j] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		x := rng.Int63n(100000)
		cols[0][i] = x
		cols[1][i] = 2*x + rng.Int63n(800)              // tight: err ~0.4% of domain
		cols[2][i] = x + int64(rng.NormFloat64()*20000) // generic
		cols[3][i] = rng.Int63n(100000)                 // independent
	}
	st, err := colstore.FromColumns(cols, nil)
	if err != nil {
		panic(err)
	}
	return st
}

func optQueries(st *colstore.Store, n int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]query.Query, n)
	for i := range out {
		var fs []query.Filter
		for j := 0; j < st.NumDims(); j++ {
			if rng.Float64() < 0.5 {
				continue
			}
			lo, hi := st.MinMax(j)
			span := hi - lo
			a := lo + rng.Int63n(span)
			fs = append(fs, query.Filter{Dim: j, Lo: a, Hi: a + span/25})
		}
		if len(fs) == 0 {
			fs = append(fs, query.Filter{Dim: 0, Lo: 0, Hi: 5000})
		}
		out[i] = query.NewCount(fs...)
	}
	return out
}

func optCfg() OptimizeConfig {
	return OptimizeConfig{
		Eval:      EvalConfig{SampleSize: 1024, MaxQueries: 30},
		MaxCells:  1 << 10,
		MaxIters:  3,
		NoSortDim: true,
		Seed:      3,
	}
}

func allRowsOf(st *colstore.Store) []int {
	rows := make([]int, st.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func TestHeuristicSkeletonFindsCorrelations(t *testing.T) {
	st := optStore(20000, 1)
	qs := optQueries(st, 60, 2)
	cfg := optCfg()
	cfg.fill()
	ctx := newSearchCtx(st, allRowsOf(st), qs, cfg)
	s := ctx.heuristicSkeleton()
	if err := s.Validate(); err != nil {
		t.Fatalf("heuristic skeleton invalid: %v", err)
	}
	// The tight pair (d0, d1) should produce a functional mapping one way
	// or the other.
	fms, _ := s.CountKinds()
	if fms == 0 {
		t.Errorf("expected at least one functional mapping in %v", s)
	}
	hasPairMapping := (s[0].Kind == Mapped && s[0].Other == 1) ||
		(s[1].Kind == Mapped && s[1].Other == 0)
	if !hasPairMapping {
		t.Errorf("expected d0↔d1 mapping, got %v", s)
	}
}

func TestHeuristicSkeletonDisabledThresholds(t *testing.T) {
	st := optStore(10000, 3)
	qs := optQueries(st, 40, 4)
	cfg := optCfg()
	cfg.FMErrFrac = -1
	cfg.CCDFEmptyFrac = 2
	cfg.fill()
	ctx := newSearchCtx(st, allRowsOf(st), qs, cfg)
	s := ctx.heuristicSkeleton()
	for j, strat := range s {
		if strat.Kind != Independent {
			t.Errorf("dim %d: disabled heuristics still produced %v", j, strat.Kind)
		}
	}
}

func TestAllOptimizersProduceValidLayouts(t *testing.T) {
	st := optStore(10000, 5)
	qs := optQueries(st, 50, 6)
	rows := allRowsOf(st)
	for _, opt := range []Optimizer{AGD(), GD(), BlackBox(), AGDNI()} {
		layout, cost := Optimize(st, rows, qs, opt, optCfg())
		if err := layout.Validate(); err != nil {
			t.Errorf("%s produced invalid layout: %v", opt.Name, err)
		}
		if cost <= 0 || cost >= 1e300 {
			t.Errorf("%s cost = %v", opt.Name, cost)
		}
		// The layout must actually build and answer queries correctly.
		g, store, err := buildAndBind(st, layout)
		if err != nil {
			t.Fatalf("%s layout failed to build: %v", opt.Name, err)
		}
		checkGridCorrect(t, g, store, qs[:20], opt.Name)
	}
}

func buildAndBind(st *colstore.Store, l Layout) (*Grid, *colstore.Store, error) {
	g, ordered, err := Build(st, allRowsOf(st), l)
	if err != nil {
		return nil, nil, err
	}
	clone := st.Gather(ordered, nil)
	return g.Bind(clone, 0), clone, nil
}

func checkGridCorrect(t *testing.T, g *Grid, st *colstore.Store, qs []query.Query, label string) {
	t.Helper()
	for _, q := range qs {
		var want colstore.ScanResult
		st.ScanRange(q, 0, st.NumRows(), false, &want)
		got, _ := execute(g, q)
		if got.Count != want.Count {
			t.Fatalf("%s: %s got %d want %d", label, q, got.Count, want.Count)
		}
	}
}

func TestAGDImprovesOnInitialLayout(t *testing.T) {
	st := optStore(20000, 7)
	qs := optQueries(st, 60, 8)
	cfg := optCfg()
	cfg.fill()
	ctx := newSearchCtx(st, allRowsOf(st), qs, cfg)
	s0 := ctx.heuristicSkeleton()
	init := NewLayout(s0, ctx.initialP(s0), ctx.sortDim)
	initCost := ctx.eval.Cost(init)
	final := runAGD(ctx)
	finalCost := ctx.eval.Cost(final)
	if finalCost > initCost*1.001 {
		t.Errorf("AGD made things worse: %.0f -> %.0f", initCost, finalCost)
	}
}

func TestAGDNIRecoversFromNaiveStart(t *testing.T) {
	// §6.6: AGD from the naive all-independent skeleton should still find
	// correlation-aware layouts via the one-hop local search.
	st := optStore(20000, 9)
	qs := optQueries(st, 60, 10)
	cfg := optCfg()
	layoutNI, costNI := Optimize(st, allRowsOf(st), qs, AGDNI(), cfg)
	_, costAGD := Optimize(st, allRowsOf(st), qs, AGD(), cfg)
	if err := layoutNI.Validate(); err != nil {
		t.Fatal(err)
	}
	// AGD-NI should land within a small factor of AGD (the paper's Fig 12b
	// shows them comparable; on Taxi AGD-NI even wins).
	if costNI > costAGD*3 {
		t.Errorf("AGD-NI cost %.0f far above AGD cost %.0f", costNI, costAGD)
	}
}

func TestCellBudgetScalesWithRows(t *testing.T) {
	st := optStore(4000, 11)
	qs := optQueries(st, 40, 12)
	cfg := optCfg()
	cfg.MaxCells = 1 << 20
	layout, _ := Optimize(st, allRowsOf(st), qs, AGD(), cfg)
	if layout.NumCells() > 4000/32 {
		t.Errorf("cells = %d exceed rows/32 budget", layout.NumCells())
	}
}

func TestCostModelPrefersPartitionedOverUnpartitioned(t *testing.T) {
	st := optStore(20000, 13)
	qs := []query.Query{}
	for i := 0; i < 30; i++ {
		lo := int64(i * 3000)
		qs = append(qs, query.NewCount(query.Filter{Dim: 3, Lo: lo, Hi: lo + 1000}))
	}
	cfg := optCfg()
	cfg.fill()
	e := NewEvaluator(st, allRowsOf(st), qs, cfg)
	sk := IndependentSkeleton(4)
	coarse := NewLayout(sk, []int{1, 1, 1, 1}, -1)
	fine := NewLayout(sk, []int{1, 1, 1, 16}, -1)
	if e.Cost(fine) >= e.Cost(coarse) {
		t.Errorf("cost model should favor partitioning the filtered dim: fine=%.0f coarse=%.0f",
			e.Cost(fine), e.Cost(coarse))
	}
}

func TestCostModelMonotoneInScannedWork(t *testing.T) {
	// More partitions on a never-filtered dim adds overhead with no scan
	// savings; the W2 term must make that strictly worse.
	st := optStore(20000, 14)
	qs := []query.Query{}
	for i := 0; i < 20; i++ {
		lo := int64(i * 4000)
		qs = append(qs, query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: lo + 2000}))
	}
	cfg := optCfg()
	cfg.fill()
	e := NewEvaluator(st, allRowsOf(st), qs, cfg)
	sk := IndependentSkeleton(4)
	lean := NewLayout(sk, []int{8, 1, 1, 1}, -1)
	bloated := NewLayout(sk, []int{8, 1, 1, 32}, -1)
	if e.Cost(bloated) <= e.Cost(lean) {
		t.Errorf("useless partitions should cost: bloated=%.0f lean=%.0f",
			e.Cost(bloated), e.Cost(lean))
	}
}

func TestHopsForDimRespectRestrictions(t *testing.T) {
	cfg := optCfg()
	cfg.fill()
	st := optStore(2000, 15)
	ctx := newSearchCtx(st, allRowsOf(st), optQueries(st, 20, 16), cfg)
	s := IndependentSkeleton(4)
	s[1] = DimStrategy{Kind: Conditional, Other: 0} // d0 is a base
	// d0 is referenced: it may only become Independent (it already is), so
	// no mapped/conditional hops are allowed for it.
	for _, h := range ctx.hopsForDim(s, 0) {
		if h.Kind != Independent {
			t.Errorf("base dim offered non-independent hop %v", h)
		}
	}
	// Hops for d2 must never target d1 with Conditional (d1 not
	// independent) and never map onto a mapped dim.
	s[3] = DimStrategy{Kind: Mapped, Other: 0}
	for _, h := range ctx.hopsForDim(s, 2) {
		if h.Kind == Conditional && h.Other == 1 {
			t.Errorf("conditional on dependent dim offered: %v", h)
		}
		if h.Kind == Mapped && h.Other == 3 {
			t.Errorf("mapping onto mapped dim offered: %v", h)
		}
	}
}

func TestRandomNeighborAlwaysValid(t *testing.T) {
	cfg := optCfg()
	cfg.fill()
	st := optStore(4000, 17)
	ctx := newSearchCtx(st, allRowsOf(st), optQueries(st, 30, 18), cfg)
	s := ctx.heuristicSkeleton()
	l := NewLayout(s, ctx.initialP(s), ctx.sortDim)
	for i := 0; i < 200; i++ {
		l = ctx.randomNeighbor(l)
		if err := l.Validate(); err != nil {
			t.Fatalf("random neighbor %d invalid: %v\n%v", i, err, l)
		}
		if l.NumCells() > ctx.cfg.MaxCells {
			t.Fatalf("random neighbor %d over budget", i)
		}
	}
}

func TestEmptyCellFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 10000
	x := make([]int64, n)
	yTight := make([]int64, n)
	yIndep := make([]int64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Int63n(100000)
		yTight[i] = x[i] + rng.Int63n(100)
		yIndep[i] = rng.Int63n(100000)
	}
	bounds := func(col []int64) []int64 {
		sorted := slices.Clone(col)
		slices.Sort(sorted)
		return equiDepthBounds(sorted, 16)
	}
	tight := emptyCellFraction(x, yTight, bounds(x), bounds(yTight))
	indep := emptyCellFraction(x, yIndep, bounds(x), bounds(yIndep))
	if tight < 0.5 {
		t.Errorf("tight correlation empty fraction = %.2f, want > 0.5", tight)
	}
	if indep > 0.2 {
		t.Errorf("independent empty fraction = %.2f, want ≈0", indep)
	}
}

func TestLayoutValidateRejections(t *testing.T) {
	s := IndependentSkeleton(3)
	s[0] = DimStrategy{Kind: Mapped, Other: 1}
	s[1] = DimStrategy{Kind: Mapped, Other: 2}
	if err := s.Validate(); err == nil {
		t.Error("mapping onto a mapped dim must be rejected")
	}
	s2 := IndependentSkeleton(3)
	s2[0] = DimStrategy{Kind: Conditional, Other: 1}
	s2[1] = DimStrategy{Kind: Conditional, Other: 2}
	if err := s2.Validate(); err == nil {
		t.Error("conditional base must be independent")
	}
	s3 := IndependentSkeleton(3)
	s3[2] = DimStrategy{Kind: Mapped, Other: 2}
	if err := s3.Validate(); err == nil {
		t.Error("self-mapping must be rejected")
	}
	l := NewLayout(IndependentSkeleton(3), []int{2, 2, 2}, 1)
	l.Skeleton[0] = DimStrategy{Kind: Conditional, Other: 1}
	if err := l.Validate(); err == nil {
		t.Error("referencing the sort dim must be rejected")
	}
}

func TestEvaluatorEvalsCounted(t *testing.T) {
	st := optStore(2000, 20)
	qs := optQueries(st, 20, 21)
	cfg := optCfg()
	cfg.fill()
	e := NewEvaluator(st, allRowsOf(st), qs, cfg)
	before := e.Evals
	e.Cost(NewLayout(IndependentSkeleton(4), []int{2, 2, 2, 2}, -1))
	if e.Evals != before+1 {
		t.Errorf("eval counter not incremented")
	}
}
