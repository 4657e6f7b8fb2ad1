package live

import (
	"testing"

	"repro/internal/auggrid"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/workload"
)

// BenchmarkInsertBatch times the ingest step alone: one op inserts a
// 65 536-row burst of fresh Taxi rows in 256-row batches (the repository
// benchmark's burst and batch) into a store over a 500k-row Taxi index
// built with the benchmark's optimizer budget, its merge threshold above
// the burst so that no merge runs. It reports ns/row; allocs/op count a
// whole burst.
func BenchmarkInsertBatch(b *testing.B) {
	const batch = 256
	ds := datasets.Taxi(500_000, 1)
	idx := core.Build(ds.Store, workload.Generate(ds.Store, workload.TaxiTypes(), 100, 7), core.Config{
		Grid: auggrid.OptimizeConfig{
			Eval:     auggrid.EvalConfig{SampleSize: 512, MaxQueries: 20},
			MaxIters: 2,
			Seed:     1,
		},
	})
	fresh := datasets.Taxi(1<<16, 2).Store
	rows := make([][]int64, fresh.NumRows())
	for i := range rows {
		rows[i] = fresh.Row(i, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := Open(idx, nil, Config{MergeThreshold: 1 << 30, DisableShift: true})
		b.StartTimer()
		for k := 0; k < len(rows); k += batch {
			if err := s.InsertBatch(rows[k : k+batch]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}
