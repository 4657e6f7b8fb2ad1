package colstore

import (
	"math/rand"

	"repro/internal/query"
)

// GroupedBenchShape is one shape of the grouped benchmark suite: a
// GROUP BY query, the same query without its GROUP BY (the flat scan
// the grouped one is held against), and the physical ranges both scan,
// every row of which is filter-checked. Like KernelBenchShapes, the
// canonical list lives here so BenchmarkScanGrouped and
// BenchmarkScanGroupedScalar, which CI pairs shape by shape, run the
// same shapes.
type GroupedBenchShape struct {
	Name        string
	Query, Flat query.Query
	Ranges      [][2]int
}

// Rows returns the number of rows the shape's ranges cover.
func (sh GroupedBenchShape) Rows() int { return rangeRows(sh.Ranges) }

// GroupedBenchKeys are the distinct-key counts of the fixture's three
// group columns: one under the byte-code bound, a taxi zone's 263, and
// one in the thousands.
var GroupedBenchKeys = [3]int{8, 263, 4096}

// GroupedBench builds the grouped benchmark fixture over rows rows —
// four uniform [0, 1e6) filter columns and the three group columns of
// GroupedBenchKeys — and its shapes: the canonical count_1f filter with
// a GROUP BY on each column, COUNT and SUM, over one full-table range,
// and three plan-shaped ones: a learned-grid plan's list of short ranges
// (benchPlan) under two filters, COUNT and SUM grouped by the 263-key
// column and COUNT by the 8-key one (the byte-code path).
func GroupedBench(rows int, seed int64) (*Store, []GroupedBenchShape) {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, 4, 7)
	for j := range cols {
		c := make([]int64, rows)
		for i := range c {
			c[i] = rng.Int63n(1_000_000)
		}
		cols[j] = c
	}
	for _, keys := range GroupedBenchKeys {
		c := make([]int64, rows)
		for i := range c {
			c[i] = rng.Int63n(int64(keys))
		}
		cols = append(cols, c)
	}
	s, err := FromColumns(cols, nil)
	if err != nil {
		panic(err) // equal-length columns by construction
	}

	plan := benchPlan(rng, rows)
	full := [][2]int{{0, rows}}
	f := func(dim int) query.Filter { return query.Filter{Dim: dim, Lo: 250_000, Hi: 750_000} }
	shape := func(name string, flat query.Query, by int, ranges [][2]int) GroupedBenchShape {
		return GroupedBenchShape{Name: name, Query: flat.By(by), Flat: flat, Ranges: ranges}
	}
	return s, []GroupedBenchShape{
		shape("gcount_1f_low", query.NewCount(f(0)), 4, full),
		shape("gsum_1f_low", query.NewSum(1, f(0)), 4, full),
		shape("gcount_1f_mid", query.NewCount(f(0)), 5, full),
		shape("gsum_1f_mid", query.NewSum(1, f(0)), 5, full),
		shape("gcount_1f_high", query.NewCount(f(0)), 6, full),
		shape("gsum_1f_high", query.NewSum(1, f(0)), 6, full),
		shape("gcount_2f_plan_low", query.NewCount(f(0), f(1)), 4, plan),
		shape("gcount_2f_plan", query.NewCount(f(0), f(1)), 5, plan),
		shape("gsum_2f_plan", query.NewSum(2, f(0), f(1)), 5, plan),
	}
}
