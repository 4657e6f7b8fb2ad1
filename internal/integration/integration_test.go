// Package integration_test cross-validates every index in the repository
// against a full scan on pathological data distributions: negative values,
// constant columns, two-valued columns, monotone sequences, duplicated
// rows, and single-row tables. Each index must agree with the full scan on
// every query, whatever the data looks like.
package integration_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kdtree"
	"repro/internal/octree"
	"repro/internal/query"
	"repro/internal/singledim"
	"repro/internal/testutil"
	"repro/internal/zindex"
)

// pathological datasets, each 4-dimensional.
func pathologicalStores(n int) map[string]*colstore.Store {
	rng := rand.New(rand.NewSource(99))
	out := make(map[string]*colstore.Store)

	mk := func(name string, gen func(i int) []int64) {
		cols := make([][]int64, 4)
		for j := range cols {
			cols[j] = make([]int64, n)
		}
		for i := 0; i < n; i++ {
			row := gen(i)
			for j := range cols {
				cols[j][i] = row[j]
			}
		}
		st, err := colstore.FromColumns(cols, nil)
		if err != nil {
			panic(err)
		}
		out[name] = st
	}

	mk("negative", func(i int) []int64 {
		return []int64{rng.Int63n(2000) - 1000, -rng.Int63n(1_000_000), rng.Int63n(100) - 50, -1 * rng.Int63n(10)}
	})
	mk("constant-column", func(i int) []int64 {
		return []int64{42, rng.Int63n(1000), 42, rng.Int63n(1000)}
	})
	mk("two-valued", func(i int) []int64 {
		return []int64{rng.Int63n(2), rng.Int63n(2) * 1000, rng.Int63n(1000), rng.Int63n(2)}
	})
	mk("monotone", func(i int) []int64 {
		return []int64{int64(i), int64(i) * 2, int64(n - i), int64(i % 7)}
	})
	mk("duplicate-rows", func(i int) []int64 {
		k := int64(i / 50) // 50 copies of each row
		return []int64{k, k * 3, k % 11, k % 3}
	})
	return out
}

func smallTsunamiConfig() core.Config {
	return core.Config{
		Grid: auggrid.OptimizeConfig{
			Eval:     auggrid.EvalConfig{SampleSize: 512, MaxQueries: 16},
			MaxCells: 1 << 10,
			MaxIters: 2,
		},
		MinRowsForGrid: 256,
	}
}

// smallFloodConfig is smallTsunamiConfig's Flood variant.
func smallFloodConfig() core.Config {
	c := smallTsunamiConfig()
	c.Variant = core.Flood
	return c
}

func TestAllIndexesOnPathologicalData(t *testing.T) {
	const n = 4000
	for name, st := range pathologicalStores(n) {
		t.Run(name, func(t *testing.T) {
			work := testutil.RandomQueries(st, 40, 7)
			probe := testutil.RandomQueries(st, 60, 8)
			indexes := []index.Index{
				core.Build(st, work, smallTsunamiConfig()),
				core.Build(st, work, smallFloodConfig()),
				kdtree.Build(st, work, 128),
				octree.Build(st, 128),
				zindex.Build(st, 128),
				singledim.Build(st, work, -1),
			}
			for _, idx := range indexes {
				testutil.CheckMatchesFullScan(t, idx, st, probe)
			}
		})
	}
}

func TestSingleRowTable(t *testing.T) {
	st, err := colstore.FromRows([][]int64{{7, -3, 0, 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := []query.Query{
		query.NewCount(query.Filter{Dim: 0, Lo: 7, Hi: 7}),
		query.NewCount(query.Filter{Dim: 1, Lo: -10, Hi: 0}),
		query.NewCount(query.Filter{Dim: 2, Lo: 1, Hi: 5}),
		query.NewSum(3, query.Filter{Dim: 0, Lo: 0, Hi: 100}),
	}
	indexes := []index.Index{
		core.Build(st, nil, smallTsunamiConfig()),
		core.Build(st, nil, smallFloodConfig()),
		kdtree.Build(st, nil, 16),
		octree.Build(st, 16),
		zindex.Build(st, 16),
		singledim.Build(st, nil, 0),
	}
	for _, idx := range indexes {
		testutil.CheckMatchesFullScan(t, idx, st, probe)
	}
}

// TestQuickRandomTables drives all indexes with property-based random
// tables: arbitrary shapes, value ranges, and query mixes.
func TestQuickRandomTables(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(2000)
		d := 2 + rng.Intn(4)
		cols := make([][]int64, d)
		for j := range cols {
			cols[j] = make([]int64, n)
			scale := int64(1) << uint(rng.Intn(40))
			off := rng.Int63n(1000) - 500
			for i := range cols[j] {
				cols[j][i] = rng.Int63n(scale+1) + off
			}
		}
		st, err := colstore.FromColumns(cols, nil)
		if err != nil {
			return false
		}
		work := testutil.RandomQueries(st, 15, seed+1)
		probe := testutil.RandomQueries(st, 25, seed+2)
		full := index.NewFullScan(st)
		indexes := []index.Index{
			core.Build(st, work, smallTsunamiConfig()),
			core.Build(st, work, smallFloodConfig()),
			kdtree.Build(st, work, 64),
			zindex.Build(st, 64),
		}
		for _, q := range probe {
			want := full.Execute(q)
			for _, idx := range indexes {
				got := idx.Execute(q)
				if got.Count != want.Count || got.Sum != want.Sum {
					t.Logf("seed %d: %s on %s: got (%d,%d), want (%d,%d)",
						seed, idx.Name(), q, got.Count, got.Sum, want.Count, want.Sum)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
