package colstore

import (
	"math/rand"
	"testing"

	"repro/internal/query"
)

// BenchmarkScanGrouped measures single-thread throughput of the grouped
// scan on the dispatched kernels over the groupedBench shapes, with one
// accumulator Reset per pass the way a pooled query context runs it. CI
// gates the kernel-vs-scalar speedup within one run (benchgate
// 'BenchmarkScanGroupedScalar/BenchmarkScanGrouped>=1.5'), which is
// immune to runner-hardware variance.
func BenchmarkScanGrouped(b *testing.B) {
	s, shapes := groupedBench(b, 1<<18, 7)
	for _, sh := range shapes {
		b.Run(sh.Name, func(b *testing.B) {
			b.SetBytes(int64(sh.Rows()) * 8)
			var acc GroupAccumulator
			var res GroupedResult
			for i := 0; i < b.N; i++ {
				acc.Reset(sh.Query, s)
				for _, r := range sh.Ranges {
					s.ScanRangeGrouped(sh.Query, r[0], r[1], false, &acc)
				}
				res = acc.Result()
			}
			if len(res.Groups) == 0 {
				b.Fatal("benchmark query produced no groups")
			}
		})
	}
}

// BenchmarkScanGroupedScalar is the row-at-a-time grouped oracle on the
// same shapes — the scalar side of the CI speedup gate.
func BenchmarkScanGroupedScalar(b *testing.B) {
	s, shapes := groupedBench(b, 1<<18, 7)
	for _, sh := range shapes {
		b.Run(sh.Name, func(b *testing.B) {
			b.SetBytes(int64(sh.Rows()) * 8)
			var res GroupedResult
			for i := 0; i < b.N; i++ {
				res = GroupedResult{}
				for _, r := range sh.Ranges {
					s.ScanRangeGroupedScalar(sh.Query, r[0], r[1], false, &res)
				}
			}
			if len(res.Groups) == 0 {
				b.Fatal("benchmark query produced no groups")
			}
		})
	}
}

// groupedBenchShape is one shape of the grouped benchmark suite: a
// GROUP BY query, the same query without its GROUP BY (the flat scan
// the grouped one is held against), and the physical ranges both scan,
// every row of which is filter-checked. Like KernelBenchShapes, the
// canonical list lives here so BenchmarkScanGrouped and
// BenchmarkScanGroupedScalar, which CI pairs shape by shape, run the
// same shapes.
type groupedBenchShape struct {
	Name        string
	Query, Flat query.Query
	Ranges      [][2]int
}

// Rows returns the number of rows the shape's ranges cover.
func (sh groupedBenchShape) Rows() int { return rangeRows(sh.Ranges) }

// groupedBenchKeys are the distinct-key counts of the fixture's three
// group columns: one under the byte-code bound, a taxi zone's 263, and
// one in the thousands.
var groupedBenchKeys = [3]int{8, 263, 4096}

// groupedBench builds the grouped benchmark fixture over rows rows —
// four uniform [0, 1e6) filter columns and the three group columns of
// groupedBenchKeys — and its shapes: the canonical count_1f filter with
// a GROUP BY on each column, COUNT and SUM, over one full-table range,
// and three plan-shaped ones: a learned-grid plan's list of short ranges
// (benchPlan) under two filters, COUNT and SUM grouped by the 263-key
// column and COUNT by the 8-key one (the byte-code path).
func groupedBench(tb testing.TB, rows int, seed int64) (*Store, []groupedBenchShape) {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, 4, 7)
	for j := range cols {
		c := make([]int64, rows)
		for i := range c {
			c[i] = rng.Int63n(1_000_000)
		}
		cols[j] = c
	}
	for _, keys := range groupedBenchKeys {
		c := make([]int64, rows)
		for i := range c {
			c[i] = rng.Int63n(int64(keys))
		}
		cols = append(cols, c)
	}
	s, err := FromColumns(cols, nil)
	if err != nil {
		tb.Fatal(err)
	}

	plan := benchPlan(rng, rows)
	full := [][2]int{{0, rows}}
	f := func(dim int) query.Filter { return query.Filter{Dim: dim, Lo: 250_000, Hi: 750_000} }
	shape := func(name string, flat query.Query, by int, ranges [][2]int) groupedBenchShape {
		return groupedBenchShape{Name: name, Query: flat.By(by), Flat: flat, Ranges: ranges}
	}
	return s, []groupedBenchShape{
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
