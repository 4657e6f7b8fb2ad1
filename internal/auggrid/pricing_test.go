package auggrid

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/workload"
)

// pricingLayout draws a layout for the differential test: randomLayout's
// mix of independent, mapped and conditional dims, with or without a sort
// dim, where some dims get one partition and some many (so small samples
// leave base partitions and cells empty), half of them with an outlier
// buffer. It keeps to 1<<14 cells, as the optimizer keeps to its budget.
func pricingLayout(d int, rng *rand.Rand) Layout {
	for {
		l := randomLayout(d, rng)
		for j := range l.P {
			switch rng.Intn(4) {
			case 0:
				l.P[j] = 1
			case 1:
				l.P[j] = 1 + rng.Intn(40)
			}
		}
		if rng.Intn(2) == 0 {
			l.OutlierFrac = []float64{0.01, 0.05, 0.3}[rng.Intn(3)]
		}
		if l.Validate() == nil && l.NumCells() <= 1<<14 {
			return l
		}
	}
}

// TestPricingBuildMatchesBuild checks the Evaluator's pricing build (its
// ordered sample, linear passes, reused scratch) against Build's sort and
// search over the same sample rows: every grid field, the offsets, the
// outlier count and the row order must be equal. One Evaluator prices
// every layout in turn, so stale scratch from the previous candidate would
// show. It covers Taxi and TPC-H samples of 512 rows and of 40 (many empty
// groups and cells), random layouts and the optimizer's own neighbors.
func TestPricingBuildMatchesBuild(t *testing.T) {
	for _, ds := range []*datasets.Dataset{datasets.Taxi(20_000, 3), datasets.TPCH(20_000, 4)} {
		for _, size := range []int{512, 40} {
			rng := rand.New(rand.NewSource(int64(size)))
			work := workload.ForDataset(ds, 20, 5)
			cfg := OptimizeConfig{Eval: EvalConfig{SampleSize: size, MaxQueries: 10, Seed: 6}, Seed: 7}
			cfg.fill()
			c := newSearchCtx(ds.Store, allRowsOf(ds.Store), work, cfg)
			e := c.eval
			s := c.heuristicSkeleton()
			neighbor := c.newLayout(s, c.initialP(s))
			for trial := 0; trial < 400; trial++ {
				l := pricingLayout(ds.Dims(), rng)
				if trial%4 == 3 {
					neighbor = c.randomNeighbor(neighbor)
					l = neighbor
				}
				want, wantRows, err := build(e.sample, e.rows, l, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, gotRows, err := build(e.sample, e.rows, l, e.ord)
				if err != nil {
					t.Fatal(err)
				}
				if field := gridDiff(got, want); field != "" || !slices.Equal(gotRows, wantRows) {
					t.Fatalf("%s, %d-row sample, trial %d, layout %v (outlier frac %v): pricing build differs from Build in %q (rows equal: %v)",
						ds.Name, size, trial, l, l.OutlierFrac, field, slices.Equal(gotRows, wantRows))
				}
			}
		}
	}
}

// gridDiff names the first field in which two grids differ, or returns "".
func gridDiff(a, b *Grid) string {
	fields := []struct {
		name string
		a, b any
	}{
		{"layout", a.layout, b.layout}, {"store", a.store, b.store},
		{"start", a.start, b.start}, {"n", a.n, b.n},
		{"gridDims", a.gridDims, b.gridDims}, {"strides", a.strides, b.strides},
		{"posOf", a.posOf, b.posOf}, {"bounds", a.bounds, b.bounds},
		{"condBounds", a.condBounds, b.condBounds}, {"mappings", a.mappings, b.mappings},
		{"dimLo", a.dimLo, b.dimLo}, {"dimHi", a.dimHi, b.dimHi},
		{"offsets", a.offsets, b.offsets}, {"nOutliers", a.nOutliers, b.nOutliers},
	}
	if n := reflect.TypeOf(Grid{}).NumField(); n != len(fields) {
		return "a field gridDiff does not compare"
	}
	for _, f := range fields {
		if !reflect.DeepEqual(f.a, f.b) {
			return f.name
		}
	}
	return ""
}

// TestEvaluatorCostMatchesSortingPath prices optimizer candidates through
// the pricing build and through Build's sorting path: the costs must be
// equal, since the grids are.
func TestEvaluatorCostMatchesSortingPath(t *testing.T) {
	e, cands := pricingCandidates(datasets.Taxi(20_000, 1))
	sorting := *e
	sorting.ord = nil
	for i, l := range cands {
		if got, want := e.Cost(l), sorting.Cost(l); got != want {
			t.Fatalf("candidate %d %v: cost %v, sorting path %v", i, l, got, want)
		}
	}
}

// pricingCandidates is the optimizer's view of a Taxi table: its
// Evaluator over a 512-row sample and 20 queries, and twelve candidates
// shaped like the ones it prices: the heuristic start, its random
// neighbors (partition counts scaled, one dim's strategy hopped), and a
// layout mixing the three strategies (fare mapped onto distance, drop-off
// zone conditional on pick-up zone, pick-up time sorted within cells).
func pricingCandidates(ds *datasets.Dataset) (*Evaluator, []Layout) {
	work := workload.Generate(ds.Store, workload.TaxiTypes(), 100, 7)
	cfg := OptimizeConfig{Eval: EvalConfig{SampleSize: 512, MaxQueries: 20, Seed: 1}, Seed: 1}
	cfg.fill()
	c := newSearchCtx(ds.Store, allRowsOf(ds.Store), work, cfg)
	s := c.heuristicSkeleton()
	cands := []Layout{c.newLayout(s, c.initialP(s))}
	for len(cands) < 11 {
		cands = append(cands, c.randomNeighbor(cands[c.rng.Intn(len(cands))]))
	}
	mixed := IndependentSkeleton(ds.Dims())
	mixed[datasets.TaxiFare] = DimStrategy{Kind: Mapped, Other: datasets.TaxiDistance}
	mixed[datasets.TaxiDropoffZone] = DimStrategy{Kind: Conditional, Other: datasets.TaxiPickupZone}
	cands = append(cands, NewLayout(mixed, []int{1, 4, 6, 1, 3, 1, 3, 5, 4}, datasets.TaxiPickupTime))
	return c.eval, cands
}
