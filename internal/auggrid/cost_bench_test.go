package auggrid

import (
	"testing"

	"repro/internal/datasets"
)

// BenchmarkEvaluatorCost prices the twelve optimizer-shaped candidates of
// pricingCandidates on a 100k-row Taxi table, the way the optimizer does
// for every step it considers: build each candidate's grid over the
// 512-row evaluation sample and plan 20 queries on it. One op is all
// twelve.
func BenchmarkEvaluatorCost(b *testing.B) {
	benchmarkEvaluatorCost(b, false)
}

// BenchmarkEvaluatorCostSorted prices the same candidates through Build's
// sorting path (sorts and binary searches instead of the Evaluator's
// ordered sample); CI holds its ns/op to at least 2x
// BenchmarkEvaluatorCost's.
func BenchmarkEvaluatorCostSorted(b *testing.B) {
	benchmarkEvaluatorCost(b, true)
}

func benchmarkEvaluatorCost(b *testing.B, sorting bool) {
	e, cands := pricingCandidates(datasets.Taxi(100_000, 1))
	if sorting {
		e.ord = nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range cands {
			e.Cost(l)
		}
	}
}
