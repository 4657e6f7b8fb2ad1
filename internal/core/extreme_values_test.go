package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
)

// TestExtremeValuesMatchFullScan builds every variant over columns holding
// math.MaxInt64 and math.MinInt64 beside ordinary values and checks each
// answer against a full scan. A partition boundary one past a column's
// maximum must not wrap when that maximum is MaxInt64, and a functional
// mapping's prediction for a huge input must saturate rather than overflow
// the int64 it is converted to. Training filters one, two or all three dims,
// so the optimizer builds independent, conditional and mapped layouts.
func TestExtremeValuesMatchFullScan(t *testing.T) {
	const n, d = 20000, 3
	rng := rand.New(rand.NewSource(1))
	cols := make([][]int64, d)
	for j := range cols {
		cols[j] = make([]int64, n)
		for i := range cols[j] {
			cols[j][i] = rng.Int63n(1000) - 500
		}
	}
	perm := rng.Perm(n)
	for _, r := range perm[:50] {
		cols[0][r] = math.MaxInt64
	}
	for _, r := range perm[50:100] {
		cols[1][r] = math.MinInt64
	}
	for _, r := range perm[100:150] {
		cols[2][r] = math.MaxInt64
	}
	st, err := colstore.FromColumns(cols, []string{"d0", "d1", "d2"})
	if err != nil {
		t.Fatal(err)
	}
	full := index.NewFullScan(st)

	// window draws a query filtering k dims (starting at a random one),
	// each over a window 100 values wide.
	window := func(k int) query.Query {
		j0 := rng.Intn(d)
		fs := make([]query.Filter, k)
		for i := range fs {
			lo := rng.Int63n(1000) - 500
			fs[i] = query.Filter{Dim: (j0 + i) % d, Lo: lo, Hi: lo + 99}
		}
		return query.NewCount(fs...)
	}
	for k := 1; k <= d; k++ {
		train := make([]query.Query, 200)
		for i := range train {
			train[i] = window(k)
		}
		var probe []query.Query
		for i := 0; i < 40; i++ {
			probe = append(probe, window(k))
		}
		for j := 0; j < d; j++ {
			probe = append(probe,
				query.NewCount(query.Filter{Dim: j, Lo: 400, Hi: query.NoHi}),
				query.NewCount(query.Filter{Dim: j, Lo: query.NoLo, Hi: -400}),
				query.NewCount(query.Filter{Dim: j, Lo: 223, Hi: 323}),
				query.NewSum((j+1)%d, query.Filter{Dim: j, Lo: 350, Hi: 450}),
				query.NewCount(query.Filter{Dim: j, Lo: 499, Hi: math.MaxInt64 - 1}),
				query.NewCount(query.Filter{Dim: j, Lo: query.NoLo, Hi: math.MaxInt64 - 1}),
				query.NewCount(query.Filter{Dim: j, Lo: math.MinInt64 + 1, Hi: query.NoHi}),
				query.NewCount(query.Filter{Dim: j, Lo: math.MaxInt64, Hi: math.MaxInt64}),
				query.NewCount(query.Filter{Dim: j, Lo: math.MinInt64, Hi: math.MinInt64}),
			)
		}
		for _, v := range []Variant{FullTsunami, AugGridOnly, GridTreeOnly, Flood} {
			t.Run(fmt.Sprintf("%ddims/%s", k, v), func(t *testing.T) {
				cfg := Config{
					Variant: v,
					Grid: auggrid.OptimizeConfig{
						Eval:     auggrid.EvalConfig{SampleSize: 512, MaxQueries: 20},
						MaxIters: 2,
					},
				}
				idx := Build(st, train, cfg)
				wrong := 0
				for i, q := range probe {
					got, want := idx.Execute(q), full.Execute(q)
					if got.Count == want.Count && got.Sum == want.Sum {
						continue
					}
					if wrong++; wrong <= 3 {
						t.Errorf("query %d (%s): got (count=%d sum=%d), want (count=%d sum=%d)",
							i, q, got.Count, got.Sum, want.Count, want.Sum)
					}
				}
				if wrong > 0 {
					t.Errorf("%d of %d queries wrong; layout:\n%s", wrong, len(probe), idx.DebugRegions())
				}
			})
		}
	}
}
