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
		b.Run(c.ds.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Build(c.ds.Store, work, benchConfig)
			}
		})
	}
}

// benchConfig is the repository benchmark's optimizer budget: two AGD
// iterations, a 512-row evaluation sample, 20 replayed queries.
var benchConfig = Config{Grid: auggrid.OptimizeConfig{
	Eval:     auggrid.EvalConfig{SampleSize: 512, MaxQueries: 20},
	MaxIters: 2,
	Seed:     1,
}}

// BenchmarkMergedCopy times one merge of 4 096 buffered rows (fresh Taxi
// rows, drawn like the table's) into a 100k-row Taxi index built with the
// repository benchmark's optimizer budget: every region holding buffered
// rows is folded. BenchmarkMergedCopyRebuild times the same merge with
// every such region built again instead, the merge the fold replaced; CI
// holds the ratio of the two.
func BenchmarkMergedCopy(b *testing.B) { benchMerge(b, false) }

func BenchmarkMergedCopyRebuild(b *testing.B) { benchMerge(b, true) }

func benchMerge(b *testing.B, rebuild bool) {
	ds := datasets.Taxi(100_000, 1)
	idx := Build(ds.Store, workload.Generate(ds.Store, workload.TaxiTypes(), 100, 7), benchConfig)
	fresh := datasets.Taxi(4096, 2).Store
	rows := make([][]int64, fresh.NumRows())
	for i := range rows {
		rows[i] = fresh.Row(i, nil)
	}
	buffered, err := idx.CopyWithInserts(rows)
	if err != nil {
		b.Fatal(err)
	}
	if rebuild {
		defer relearnEveryRegion()()
	}
	b.Run("taxi_100k_4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := buffered.MergedCopy(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
