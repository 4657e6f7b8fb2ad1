package colstore_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datasets"
	"repro/internal/query"
)

// TestTaxiEveryColumnFiltered runs a Taxi query with a filter on each of
// its nine columns, whose spans put them on 2- and 4-byte lanes, and one
// with every column filtered twice (past the filters a prepared query
// holds without allocating), flat and grouped, through a plan of short,
// long and exact ranges on every tier with the narrow lanes on and off,
// against the scalar oracles.
func TestTaxiEveryColumnFiltered(t *testing.T) {
	st := datasets.Taxi(20000, 3).Store
	rng := rand.New(rand.NewSource(5))
	var once, twice []query.Filter
	for d := range st.NumDims() {
		col := slices.Sorted(slices.Values(st.Column(d)))
		f := query.Filter{Dim: d, Lo: col[len(col)/20], Hi: col[len(col)*19/20]}
		once = append(once, f)
		twice = append(twice, f, query.Filter{Dim: d, Lo: f.Lo - 1, Hi: col[len(col)-1]})
	}
	var plan []colstore.Range
	for start := 0; start < st.NumRows(); {
		end := min(start+1+rng.Intn([]int{63, 700}[rng.Intn(2)]), st.NumRows())
		plan = append(plan, colstore.Range{Start: start, End: end, Exact: rng.Intn(10) == 0})
		start = end + rng.Intn(300)
	}
	defer colstore.SetSIMD(colstore.SetSIMD(true))
	defer colstore.SetCoded(colstore.SetCoded(true))
	for _, q := range []query.Query{query.NewCount(once...), query.NewSum(4, once...), query.NewSum(6, twice...)} {
		var want colstore.ScanResult
		var wantGrouped colstore.GroupedResult
		gq := q.By(0)
		for _, r := range plan {
			st.ScanRangeScalar(q, r.Start, r.End, r.Exact, &want)
			st.ScanRangeGroupedScalar(gq, r.Start, r.End, r.Exact, &wantGrouped)
		}
		if want.Count == 0 {
			t.Fatalf("%s matches nothing", q)
		}
		for _, simd := range []bool{true, false} {
			for _, coded := range []bool{true, false} {
				colstore.SetSIMD(simd)
				colstore.SetCoded(coded)
				var got colstore.ScanResult
				st.ScanRanges(q, plan, &got, nil)
				acc := colstore.NewGroupAccumulator(gq, st)
				st.ScanRanges(gq, plan, nil, acc)
				grouped := acc.Result()
				grouped.Regime = wantGrouped.Regime
				if !got.Equal(want) || !grouped.Equal(wantGrouped) {
					t.Fatalf("%s on %s (narrow lanes %v): %+v, grouped %+v; want %+v, %+v",
						q, colstore.KernelName(), coded, got, grouped, want, wantGrouped)
				}
			}
		}
	}
}
