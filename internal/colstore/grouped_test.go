package colstore

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/query"
)

// groupedOracle computes the grouped aggregate row-at-a-time from the
// raw columns, independent of both grouped scan implementations.
func groupedOracle(s *Store, q query.Query, start, end int, exact bool) []GroupAgg {
	if start < 0 {
		start = 0
	}
	if end > s.NumRows() {
		end = s.NumRows()
	}
	type pair struct {
		count uint64
		sum   int64
	}
	groups := map[int64]pair{}
	for i := start; i < end; i++ {
		if !exact {
			ok := true
			for _, f := range q.Filters {
				if v := s.Value(i, f.Dim); v < f.Lo || v > f.Hi {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		k := s.Value(i, q.GroupDim())
		p := groups[k]
		p.count++
		if q.Agg == query.Sum {
			p.sum += s.Value(i, q.AggDim)
		}
		groups[k] = p
	}
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]GroupAgg, 0, len(keys))
	for _, k := range keys {
		out = append(out, GroupAgg{Key: k, Count: groups[k].count, Sum: groups[k].sum})
	}
	return out
}

// randGroupedStore builds a store whose group columns land in every
// accumulator regime: g_low byte-codes (COUNT) or fills 6 dense cells,
// g_mid is a sparse 330-value dense span, g_high a 100k-value span past
// maxDenseSpan, g_wild scatters keys across the whole int64 domain.
func randGroupedStore(t *testing.T, rng *rand.Rand, rows int) *Store {
	cols := [][]int64{
		make([]int64, rows), // d0: filter column, uniform [0, 1000)
		make([]int64, rows), // d1: filter column, uniform [0, 1000)
		make([]int64, rows), // d2: aggregate column, may be negative
		make([]int64, rows), // g_low: 6 distinct keys
		make([]int64, rows), // g_mid: 48 distinct keys, 7 apart
		make([]int64, rows), // g_high: ~100k-spread keys
		make([]int64, rows), // g_wild: full-domain keys from a small pool
	}
	wild := []int64{-1 << 62, -977, 0, 3, 1 << 40, 1<<62 + 11}
	for i := 0; i < rows; i++ {
		cols[0][i] = rng.Int63n(1000)
		cols[1][i] = rng.Int63n(1000)
		cols[2][i] = rng.Int63n(2001) - 1000
		cols[3][i] = 1 + rng.Int63n(6)
		cols[4][i] = rng.Int63n(48) * 7
		cols[5][i] = rng.Int63n(100_000) - 50_000
		cols[6][i] = wild[rng.Intn(len(wild))]
	}
	s, err := FromColumns(cols, []string{"f0", "f1", "val", "g_low", "g_mid", "g_high", "g_wild"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randGroupedQuery(rng *rand.Rand) query.Query {
	var fs []query.Filter
	for _, dim := range []int{0, 1} {
		switch rng.Intn(3) {
		case 0: // no filter on this dim
		case 1:
			lo := rng.Int63n(1000)
			fs = append(fs, query.Filter{Dim: dim, Lo: lo, Hi: lo + rng.Int63n(600)})
		case 2:
			v := rng.Int63n(1000)
			fs = append(fs, query.Filter{Dim: dim, Lo: v, Hi: v})
		}
	}
	var q query.Query
	if rng.Intn(2) == 0 {
		q = query.NewCount(fs...)
	} else {
		q = query.NewSum(2, fs...)
	}
	return q.By(3 + rng.Intn(4))
}

// TestScanRangeGroupedMatchesOracle pins the grouped kernel scan and the
// scalar grouped scan to an independent row-at-a-time oracle across
// random queries, unaligned ranges, every group-cardinality regime, and
// both kernel tiers.
func TestScanRangeGroupedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randGroupedStore(t, rng, 10_000)

	check := func(t *testing.T, q query.Query, start, end int, exact bool) {
		t.Helper()
		if exact {
			// exact promises every row matches; only valid with no filters
			q.Filters = nil
		}
		want := groupedOracle(s, q, start, end, exact)

		acc := NewGroupAccumulator(q, s)
		scanGrouped(s, q, start, end, exact, acc)
		got := acc.Result()
		if !reflect.DeepEqual(got.Groups, want) && !(len(got.Groups) == 0 && len(want) == 0) {
			t.Fatalf("kernel mismatch for %v rows [%d,%d) exact=%v:\n got %v\nwant %v",
				q, start, end, exact, got.Groups, want)
		}

		var sc GroupedResult
		s.ScanRangeGroupedScalar(q, start, end, exact, &sc)
		if !reflect.DeepEqual(sc.Groups, want) && !(len(sc.Groups) == 0 && len(want) == 0) {
			t.Fatalf("scalar mismatch for %v rows [%d,%d) exact=%v:\n got %v\nwant %v",
				q, start, end, exact, sc.Groups, want)
		}
		if got.PointsScanned != sc.PointsScanned || got.BytesTouched != sc.BytesTouched {
			t.Fatalf("accounting mismatch for %v: kernel (%d,%d) scalar (%d,%d)",
				q, got.PointsScanned, got.BytesTouched, sc.PointsScanned, sc.BytesTouched)
		}
	}

	run := func(t *testing.T) {
		for i := 0; i < 60; i++ {
			q := randGroupedQuery(rng)
			start := rng.Intn(s.NumRows())
			end := start + rng.Intn(s.NumRows()-start+1)
			check(t, q, start, end, false)
		}
		// Exact ranges, full range, empty range, sub-word range, inverted filter.
		check(t, query.NewCount().By(3), 0, s.NumRows(), true)
		check(t, query.NewSum(2).By(5), 100, 4321, true)
		check(t, query.NewCount().By(6), 0, s.NumRows(), false)
		check(t, query.NewCount(query.Filter{Dim: 0, Lo: 10, Hi: 700}).By(4), 500, 500, false)
		check(t, query.NewCount(query.Filter{Dim: 0, Lo: 10, Hi: 700}).By(4), 65, 100, false)
		check(t, query.NewCount(query.Filter{Dim: 0, Lo: 700, Hi: 10}).By(3), 0, s.NumRows(), false)
	}

	if SIMDAvailable() {
		t.Run("simd", func(t *testing.T) {
			prev := SetSIMD(true)
			defer SetSIMD(prev)
			run(t)
		})
	}
	t.Run("portable", func(t *testing.T) {
		prev := SetSIMD(false)
		defer SetSIMD(prev)
		run(t)
	})
}

// TestGroupedResultMerge checks the sorted-union merge against
// accumulating everything in one pass, split at arbitrary boundaries.
func TestGroupedResultMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randGroupedStore(t, rng, 8_000)
	for i := 0; i < 30; i++ {
		q := randGroupedQuery(rng)
		cut1 := rng.Intn(s.NumRows())
		cut2 := cut1 + rng.Intn(s.NumRows()-cut1)

		whole := NewGroupAccumulator(q, s)
		scanGrouped(s, q, 0, s.NumRows(), false, whole)
		want := whole.Result()

		var merged GroupedResult
		for _, span := range [][2]int{{0, cut1}, {cut1, cut2}, {cut2, s.NumRows()}} {
			part := NewGroupAccumulator(q, s)
			scanGrouped(s, q, span[0], span[1], false, part)
			merged.Merge(part.Result())
		}
		if !reflect.DeepEqual(merged.Groups, want.Groups) && !(len(merged.Groups) == 0 && len(want.Groups) == 0) {
			t.Fatalf("merge mismatch for %v split at %d,%d:\n got %v\nwant %v",
				q, cut1, cut2, merged.Groups, want.Groups)
		}
		if merged.PointsScanned != want.PointsScanned || merged.BytesTouched != want.BytesTouched {
			t.Fatalf("merge accounting mismatch for %v", q)
		}
	}
}

// TestGroupAggAvg pins per-group AVG to the merged pair.
func TestGroupAggAvg(t *testing.T) {
	g := GroupAgg{Key: 1, Count: 4, Sum: -10}
	if got := g.Avg(); got != -2.5 {
		t.Fatalf("Avg = %v, want -2.5", got)
	}
	if got := (GroupAgg{}).Avg(); got != 0 {
		t.Fatalf("empty Avg = %v, want 0", got)
	}
}

// TestGroupCodesReorderInvalidation pins the byte-code cache's Gather
// contract: a grouped COUNT that built the coded image must stay
// oracle-identical after the store's columns are rewritten in place by a
// permuting Gather into it (the Evaluator gathers into the same store
// again and again — stale codes would silently misattribute every row's
// group).
func TestGroupCodesReorderInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src := randGroupedStore(t, rng, 5_000)
	s := src.Gather(rng.Perm(src.NumRows()), nil)
	q := query.NewCount(query.Filter{Dim: 0, Lo: 100, Hi: 800}).By(3)

	acc := NewGroupAccumulator(q, s)
	scanGrouped(s, q, 0, s.NumRows(), false, acc)
	if got, want := acc.Result().Groups, groupedOracle(s, q, 0, s.NumRows(), false); !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-reorder mismatch:\n got %v\nwant %v", got, want)
	}

	if g := src.Gather(rng.Perm(src.NumRows()), s); g != s {
		t.Fatal("the gather did not reuse the coded store")
	}
	acc = NewGroupAccumulator(q, s)
	scanGrouped(s, q, 0, s.NumRows(), false, acc)
	if got, want := acc.Result().Groups, groupedOracle(s, q, 0, s.NumRows(), false); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-reorder mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestGroupCodesCrossStoreMerge drives one accumulator across two stores
// whose group columns code with different bases (as a scatter-gather
// worker might see across differently-valued shards): the second store's
// codes do not land in the accumulator's cells, so its scan must fold by
// value and Result must still union both exactly.
func TestGroupCodesCrossStoreMerge(t *testing.T) {
	rows := 2_000
	mk := func(base int64, seed int64) *Store {
		rng := rand.New(rand.NewSource(seed))
		cols := [][]int64{make([]int64, rows), make([]int64, rows)}
		for i := 0; i < rows; i++ {
			cols[0][i] = rng.Int63n(1000)
			cols[1][i] = base + rng.Int63n(5)
		}
		s, err := FromColumns(cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(10, 19), mk(-3, 23)
	q := query.NewCount(query.Filter{Dim: 0, Lo: 200, Hi: 900}).By(1)

	acc := NewGroupAccumulator(q, a)
	scanGrouped(a, q, 0, rows, false, acc)
	scanGrouped(b, q, 0, rows, false, acc)
	got := acc.Result()

	var want GroupedResult
	a.ScanRangeGroupedScalar(q, 0, rows, false, &want)
	b.ScanRangeGroupedScalar(q, 0, rows, false, &want)
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("cross-store mismatch:\n got %v\nwant %v", got.Groups, want.Groups)
	}
}

// spanStore builds a store of two filter columns, an aggregate column
// and one group column whose values are drawn from pool — with the
// pool's first and last value planted in rows 0 and 1, so the column's
// min, max and therefore span are exactly the pool's.
func spanStore(t *testing.T, rng *rand.Rand, rows int, pool func() int64, lo, hi int64) *Store {
	cols := [][]int64{make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows)}
	for i := 0; i < rows; i++ {
		cols[0][i] = rng.Int63n(1000)
		cols[1][i] = rng.Int63n(1000)
		cols[2][i] = rng.Int63n(2001) - 1000
		cols[3][i] = pool()
	}
	cols[3][0], cols[3][1] = lo, hi
	s, err := FromColumns(cols, []string{"f0", "f1", "val", "g"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// planRanges returns a learned-grid-shaped range list over n rows:
// hundreds of ascending ranges of 1-130 rows (most shorter than one
// 64-row mask word), the first starting at row 0 and the last ending at
// n, each flagged exact or not.
func planRanges(rng *rand.Rand, n int) (ranges [][2]int, exact []bool) {
	for start := 0; start < n; {
		length := 1 + rng.Intn(63)
		if rng.Intn(3) == 0 {
			length = 64 + rng.Intn(67)
		}
		end := min(start+length, n)
		if n-end < 8 {
			end = n
		}
		ranges = append(ranges, [2]int{start, end})
		exact = append(exact, rng.Intn(4) == 0)
		start = end + rng.Intn(40)
	}
	return ranges, exact
}

// TestScanRangeGroupedPlanShapes is the differential test of the grouped
// scan against the row-at-a-time oracle on the input it is built for: a
// plan's list of short ranges, over group columns on either side of
// every regime boundary (spans 1, 32 | 33, 256, 257, 65 536 | 65 537),
// with negative bases and a span that overflows int64. One accumulator
// is Reset through every case, the way a pooled query context reuses it,
// so state leaking from one query into the next shows as a mismatch.
func TestScanRangeGroupedPlanShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const rows = 9_000
	type spanCase struct {
		name          string
		base          int64
		span          uint64 // number of representable values, max-min+1
		count, sumReg GroupRegime
	}
	cases := []spanCase{
		{"span1", 7, 1, RegimeByteCode, RegimeDense},
		{"span32", -16, 32, RegimeByteCode, RegimeDense},
		{"span33", -40, 33, RegimeDense, RegimeDense},
		{"span256", 1000, 256, RegimeDense, RegimeDense},
		{"span257", -257, 257, RegimeDense, RegimeDense},
		{"span65536", -70_000, 65_536, RegimeDense, RegimeDense},
		{"span65537", 12, 65_537, RegimeHash, RegimeHash},
	}
	type fixture struct {
		spanCase
		s *Store
	}
	var fixtures []fixture
	for _, c := range cases {
		c := c
		pool := func() int64 { return c.base + rng.Int63n(int64(c.span)) }
		fixtures = append(fixtures, fixture{c, spanStore(t, rng, rows, pool, c.base, c.base+int64(c.span)-1)})
	}
	// max-min wraps int64: the unsigned width is still exact.
	wrap := []int64{-1<<63 + 5, -1<<63 + 6, -3, 0, 11, 1<<63 - 9}
	fixtures = append(fixtures, fixture{
		spanCase{"wrap", wrap[0], 0, RegimeHash, RegimeHash},
		spanStore(t, rng, rows, func() int64 { return wrap[rng.Intn(len(wrap))] }, wrap[0], wrap[len(wrap)-1]),
	})

	filters := [][]query.Filter{
		nil,
		{{Dim: 0, Lo: 200, Hi: 900}},
		{{Dim: 0, Lo: 100, Hi: 800}, {Dim: 1, Lo: 300, Hi: 999}},
		{{Dim: 1, Lo: 500, Hi: 500}},
	}
	var acc GroupAccumulator
	run := func(t *testing.T) {
		for _, fx := range fixtures {
			ranges, exact := planRanges(rng, rows)
			if len(ranges) < 100 {
				t.Fatalf("plan of %d ranges is not plan-shaped", len(ranges))
			}
			for _, fs := range filters {
				for _, q := range []query.Query{query.NewCount(fs...).By(3), query.NewSum(2, fs...).By(3)} {
					acc.Reset(q, fx.s)
					var want GroupedResult
					for i, r := range ranges {
						scanGrouped(fx.s, q, r[0], r[1], exact[i], &acc)
						fx.s.ScanRangeGroupedScalar(q, r[0], r[1], exact[i], &want)
					}
					got := acc.Result()
					if !reflect.DeepEqual(got.Groups, want.Groups) {
						t.Fatalf("%s %v: kernel and scalar oracle disagree\n got %v\nwant %v", fx.name, q, got.Groups, want.Groups)
					}
					if got.PointsScanned != want.PointsScanned || got.BytesTouched != want.BytesTouched {
						t.Fatalf("%s %v: accounting (%d,%d), oracle (%d,%d)", fx.name, q,
							got.PointsScanned, got.BytesTouched, want.PointsScanned, want.BytesTouched)
					}
					wantRegime := fx.count
					if q.Agg == query.Sum {
						wantRegime = fx.sumReg
					}
					if got.Regime != wantRegime {
						t.Fatalf("%s %v: regime %v, want %v", fx.name, q, got.Regime, wantRegime)
					}
				}
			}
		}
	}
	if SIMDAvailable() {
		t.Run("simd", func(t *testing.T) {
			prev := SetSIMD(true)
			defer SetSIMD(prev)
			run(t)
		})
	}
	t.Run("portable", func(t *testing.T) {
		prev := SetSIMD(false)
		defer SetSIMD(prev)
		run(t)
	})
}

// TestScanRangeGroupedUnalignedRanges sweeps the grouped scan over the
// boundaries its selection stage splits a range at — the AVX2 tier's 4-
// and 16-row groups (every length 0-17), 64-row words and the 1024-row
// selection buffer — from unaligned starts, with 1 to 12 filters (past
// the SIMD wrapper's 8 stack slots) and every accumulator regime, against
// the scalar oracle on every tier.
func TestScanRangeGroupedUnalignedRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const rows = 3*1024 + 41
	cols := make([][]int64, 12, 16)
	for j := range cols {
		cols[j] = randColumn(rng, rows)
	}
	wild := []int64{-1 << 62, -977, 0, 3, 1 << 40, 1<<62 + 11}
	agg, low, mid, high, wide := make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := 0; i < rows; i++ {
		agg[i] = rng.Int63n(2001) - 1000
		low[i] = 1 + rng.Int63n(6)
		mid[i] = rng.Int63n(48) * 7
		high[i] = rng.Int63n(100_000) - 50_000
		wide[i] = wild[rng.Intn(len(wild))]
	}
	cols = append(cols, agg, low, mid, high, wide)
	s, err := FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	starts := []int{0, 1, 3, 63, 64, 65, 1023, 1024, 1029}
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 1023, 1024, 1025, 2100}
	var acc GroupAccumulator
	run := func(t *testing.T) {
		for _, nf := range []int{1, 2, 3, 5, 8, 9, 12} {
			fs := make([]query.Filter, nf)
			for j := range fs {
				fs[j] = randFilter(rng, cols[j], j)
			}
			for by := 13; by <= 16; by++ {
				for _, q := range []query.Query{query.NewCount(fs...).By(by), query.NewSum(12, fs...).By(by)} {
					for _, start := range starts {
						for _, l := range lengths {
							end := min(start+l, rows)
							acc.Reset(q, s)
							scanGrouped(s, q, start, end, false, &acc)
							got := acc.Result()
							var want GroupedResult
							s.ScanRangeGroupedScalar(q, start, end, false, &want)
							if !reflect.DeepEqual(got.Groups, want.Groups) || got.PointsScanned != want.PointsScanned || got.BytesTouched != want.BytesTouched {
								t.Fatalf("%s %v rows [%d,%d):\n got %+v\nwant %+v", KernelName(), q, start, end, got, want)
							}
						}
					}
				}
			}
		}
	}
	if SIMDAvailable() {
		t.Run("simd", func(t *testing.T) {
			prev := SetSIMD(true)
			defer SetSIMD(prev)
			run(t)
		})
	}
	t.Run("portable", func(t *testing.T) {
		prev := SetSIMD(false)
		defer SetSIMD(prev)
		run(t)
	})
}

// TestScanRangeGroupedAllocs pins the grouped scan's allocation budget:
// once an accumulator is armed, a scan with up to 8 filters allocates
// nothing in any regime — the selection words live in the accumulator and
// the SIMD wrapper's arguments on its stack.
func TestScanRangeGroupedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := randGroupedStore(t, rng, 3000)
	for k := 1; k <= 8; k++ {
		fs := make([]query.Filter, k)
		for j := range fs {
			fs[j] = query.Filter{Dim: j % 2, Lo: 100, Hi: 900}
		}
		for by := 3; by <= 6; by++ {
			for _, q := range []query.Query{query.NewCount(fs...).By(by), query.NewSum(2, fs...).By(by)} {
				var acc GroupAccumulator
				if n := testing.AllocsPerRun(20, func() {
					acc.Reset(q, s)
					scanGrouped(s, q, 5, 2990, false, &acc)
					scanGrouped(s, q, 3, 20, false, &acc)
				}); n != 0 {
					t.Errorf("%s on %s: %v allocations per scan, want 0", q, KernelName(), n)
				}
			}
		}
	}
}

// TestGroupAccumulatorRowsOutsideWindow pins the by-value path a dense
// accumulator takes for keys its window cannot hold — buffered inserts
// below and above the column's range — including their place in the
// sorted result.
func TestGroupAccumulatorRowsOutsideWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := spanStore(t, rng, 500, func() int64 { return 100 + rng.Int63n(50) }, 100, 149)
	q := query.NewSum(2).By(3)
	acc := NewGroupAccumulator(q, s)
	scanGrouped(s, q, 0, s.NumRows(), true, acc)
	var want GroupedResult
	s.ScanRangeGroupedScalar(q, 0, s.NumRows(), true, &want)
	for _, k := range []int64{5000, -9, 150, 99, -9, 1 << 62} {
		acc.AddRow(k, 3)
		want.Merge(GroupedResult{GroupDim: 3, Groups: []GroupAgg{{Key: k, Count: 1, Sum: 3}}})
	}
	if got := acc.Result(); !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("got %v\nwant %v", got.Groups, want.Groups)
	}
}

// TestGroupedResultMergeReusesCapacity pins Merge's allocation contract:
// folding partials whose keys the receiver already holds allocates
// nothing, however many partials arrive.
func TestGroupedResultMergeReusesCapacity(t *testing.T) {
	part := GroupedResult{GroupDim: 2, Groups: []GroupAgg{{Key: 1, Count: 1, Sum: 1}, {Key: 4, Count: 2, Sum: -2}, {Key: 9, Count: 3}}}
	sub := GroupedResult{GroupDim: 2, Groups: []GroupAgg{{Key: 4, Count: 1, Sum: 5}}}
	var res GroupedResult
	res.Merge(part)
	if allocs := testing.AllocsPerRun(100, func() {
		res.Merge(part)
		res.Merge(sub)
	}); allocs != 0 {
		t.Fatalf("Merge of known keys allocated %v times per run", allocs)
	}
	if g, _ := res.Find(4); g.Count != 2+101*3 {
		t.Fatalf("key 4 count = %d after 101 merges of each partial", g.Count)
	}
}

// TestGroupedResultMergeDimMismatch pins that partials grouped by
// different dimensions never union: Merge reports false and leaves the
// receiver — groups and accounting — exactly as it was.
func TestGroupedResultMergeDimMismatch(t *testing.T) {
	res := GroupedResult{GroupDim: 1, Groups: []GroupAgg{{Key: 1, Count: 1}}, PointsScanned: 10}
	before := res.Clone()
	other := GroupedResult{GroupDim: 2, Groups: []GroupAgg{{Key: 1, Count: 5}}, PointsScanned: 7, BytesTouched: 56}
	if res.Merge(other) {
		t.Fatal("Merge of a partial grouped by another dimension reported success")
	}
	if !reflect.DeepEqual(res, before) {
		t.Fatalf("mismatched Merge changed the receiver: %+v, was %+v", res, before)
	}
	// An empty side has no keys to mis-union: accounting still adds.
	if !res.Merge(GroupedResult{GroupDim: 2, PointsScanned: 5}) || res.PointsScanned != 15 {
		t.Fatalf("Merge of a group-less partial: PointsScanned = %d, want 15", res.PointsScanned)
	}
	var empty GroupedResult
	if !empty.Merge(other) || empty.GroupDim != 2 || len(empty.Groups) != 1 {
		t.Fatalf("Merge into an empty result should adopt the partial: %+v", empty)
	}
}

// scanGrouped folds rows [start, end) of s into acc, grouped: the grouped
// scan of one range, with q prepared for it alone.
func scanGrouped(s *Store, q query.Query, start, end int, exact bool, acc *GroupAccumulator) {
	sc := s.prepare(q)
	sc.scanRangeGrouped(start, end, exact, acc)
}
