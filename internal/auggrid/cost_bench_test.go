package auggrid

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/workload"
)

// BenchmarkEvaluatorCost prices one candidate layout the way the optimizer
// does for every step it considers: build a grid over the 512-row
// evaluation sample of a 100k-row Taxi table and replay 20 queries on it.
// The layout mixes the three strategies: fare mapped onto distance, drop-off
// zone conditional on pick-up zone, pick-up time sorted within cells.
func BenchmarkEvaluatorCost(b *testing.B) {
	ds := datasets.Taxi(100_000, 1)
	rows := make([]int, ds.Rows())
	for i := range rows {
		rows[i] = i
	}
	work := workload.Generate(ds.Store, workload.TaxiTypes(), 100, 7)
	e := NewEvaluator(ds.Store, rows, work, EvalConfig{SampleSize: 512, MaxQueries: 20, Seed: 1})
	s := IndependentSkeleton(ds.Dims())
	s[datasets.TaxiFare] = DimStrategy{Kind: Mapped, Other: datasets.TaxiDistance}
	s[datasets.TaxiDropoffZone] = DimStrategy{Kind: Conditional, Other: datasets.TaxiPickupZone}
	p := []int{1, 4, 6, 1, 3, 1, 3, 5, 4}
	l := NewLayout(s, p, datasets.TaxiPickupTime)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cost(l)
	}
}
