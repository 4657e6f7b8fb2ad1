package core

import (
	"testing"

	"repro/internal/auggrid"
	"repro/internal/datasets"
	"repro/internal/workload"
)

// BenchmarkBuild times one index construction — Grid Tree, every region's
// layout search and grid build, and the reorganization — over 100k-row
// Taxi and TPC-H tables trained on 100 queries per type, with the
// repository benchmark's optimizer budget (two AGD iterations, a 512-row
// evaluation sample, 20 replayed queries).
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		ds    *datasets.Dataset
		types []workload.TypeSpec
	}{
		{datasets.Taxi(100_000, 1), workload.TaxiTypes()},
		{datasets.TPCH(100_000, 1), workload.TPCHTypes()},
	} {
		work := workload.Generate(c.ds.Store, c.types, 100, 7)
		cfg := Config{Grid: auggrid.OptimizeConfig{
			Eval:     auggrid.EvalConfig{SampleSize: 512, MaxQueries: 20, Seed: 1},
			MaxIters: 2,
			Seed:     1,
		}}
		b.Run(c.ds.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Build(c.ds.Store, work, cfg)
			}
		})
	}
}
