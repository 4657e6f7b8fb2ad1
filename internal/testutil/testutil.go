// Package testutil provides shared fixtures for index correctness tests:
// small seeded datasets, workloads, and the one invariant every index must
// satisfy — agreeing with a full scan on every query.
package testutil

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
)

// SmallTaxi builds a compact correlated dataset shaped like the Taxi data
// (time, tightly-correlated pair, skewed distance, low-cardinality
// passenger count) without importing the datasets package, keeping
// baseline-package tests dependency-light.
func SmallTaxi(n int, seed int64) *colstore.Store {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, 5)
	for j := range cols {
		cols[j] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		t := rng.Int63n(1_000_000)
		dist := int64(rng.ExpFloat64()*300) + 10
		cols[0][i] = t
		cols[1][i] = t + 5 + rng.Int63n(120) // tight monotone with time
		cols[2][i] = dist
		cols[3][i] = 250 + dist*5/2 + rng.Int63n(200) // tight monotone with dist
		cols[4][i] = 1 + rng.Int63n(6)                // low cardinality
	}
	st, err := colstore.FromColumns(cols, []string{"t", "t2", "dist", "fare", "pax"})
	if err != nil {
		panic(err)
	}
	return st
}

// RandomQueries draws n random conjunctive range/equality queries over the
// store, mixing COUNT and SUM.
func RandomQueries(st *colstore.Store, n int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]query.Query, n)
	for i := range out {
		var fs []query.Filter
		for j := 0; j < st.NumDims(); j++ {
			r := rng.Float64()
			if r < 0.45 {
				continue
			}
			lo, hi := st.MinMax(j)
			if r < 0.55 {
				// Equality on a sampled value.
				v := st.Value(rng.Intn(st.NumRows()), j)
				fs = append(fs, query.Filter{Dim: j, Lo: v, Hi: v})
				continue
			}
			span := hi - lo
			a := lo + rng.Int63n(span+1)
			w := span / int64(2+rng.Intn(30))
			fs = append(fs, query.Filter{Dim: j, Lo: a, Hi: a + w})
		}
		if len(fs) == 0 {
			lo, hi := st.MinMax(0)
			fs = append(fs, query.Filter{Dim: 0, Lo: lo, Hi: (lo + hi) / 2})
		}
		if rng.Intn(3) == 0 {
			out[i] = query.NewSum(rng.Intn(st.NumDims()), fs...)
		} else {
			out[i] = query.NewCount(fs...)
		}
	}
	return out
}

// RandomGroupedQueries draws n random grouped aggregates (GROUP BY) over
// the store: random filters like RandomQueries, a random grouping
// dimension (the low-cardinality last dimension of SmallTaxi exercises
// the byte-code path, the narrow ones the dense cells, the million-value
// time columns the by-value map), and a mix of grouped COUNT and grouped
// SUM.
func RandomGroupedQueries(st *colstore.Store, n int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	base := RandomQueries(st, n, seed+1)
	out := make([]query.Query, n)
	for i, q := range base {
		out[i] = q.By(rng.Intn(st.NumDims()))
	}
	return out
}

// GroupedOracle answers a grouped query by a naive full row-at-a-time
// scan of truth — the independent reference every grouped execution path
// must agree with. Only the groups are computed (scan accounting is a
// property of the execution strategy, not the answer).
func GroupedOracle(truth *colstore.Store, q query.Query) colstore.GroupedResult {
	gd := q.GroupDim()
	cells := make(map[int64]*colstore.GroupAgg)
	row := make([]int64, truth.NumDims())
	for i := 0; i < truth.NumRows(); i++ {
		truth.Row(i, row)
		if !q.MatchesRow(row) {
			continue
		}
		c := cells[row[gd]]
		if c == nil {
			c = &colstore.GroupAgg{Key: row[gd]}
			cells[row[gd]] = c
		}
		c.Count++
		if q.Agg == query.Sum {
			c.Sum += row[q.AggDim]
		}
	}
	res := colstore.GroupedResult{GroupDim: gd}
	for _, c := range cells {
		res.Groups = append(res.Groups, *c)
	}
	sort.Slice(res.Groups, func(a, b int) bool { return res.Groups[a].Key < res.Groups[b].Key })
	return res
}

// CheckGroupedMatchesFullScan fails the test unless exec agrees with
// GroupedOracle on every query: same group keys, same per-group count
// and sum. name labels failures (the grouped entry points are methods on
// concrete stores, not index.Index, so the execution is passed as a
// function).
func CheckGroupedMatchesFullScan(t *testing.T, name string, exec func(query.Query) colstore.GroupedResult, truth *colstore.Store, qs []query.Query) {
	t.Helper()
	for i, q := range qs {
		want := GroupedOracle(truth, q)
		got := exec(q)
		if len(got.Groups) != len(want.Groups) {
			t.Fatalf("%s query %d (%s): %d groups, want %d", name, i, q, len(got.Groups), len(want.Groups))
		}
		for j, g := range got.Groups {
			w := want.Groups[j]
			if g.Key != w.Key || g.Count != w.Count || g.Sum != w.Sum {
				t.Fatalf("%s query %d (%s) group %d: got {key=%d count=%d sum=%d}, want {key=%d count=%d sum=%d}",
					name, i, q, j, g.Key, g.Count, g.Sum, w.Key, w.Count, w.Sum)
			}
		}
	}
}

// SkewedQueries draws a workload with two distinct query types, one
// concentrated in the top of dim 0 (recency skew) and one uniform over dim
// 1 — the Fig 2 scenario.
func SkewedQueries(st *colstore.Store, n int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	lo0, hi0 := st.MinMax(0)
	lo1, hi1 := st.MinMax(1)
	out := make([]query.Query, n)
	for i := range out {
		if i%2 == 0 {
			// Narrow queries over the most recent 10% of dim 0.
			base := hi0 - (hi0-lo0)/10
			a := base + rng.Int63n((hi0-base)+1)
			w := (hi0 - lo0) / 200
			q := query.NewCount(query.Filter{Dim: 0, Lo: a, Hi: a + w})
			q.Type = 0
			out[i] = q
		} else {
			a := lo1 + rng.Int63n(hi1-lo1+1)
			w := (hi1 - lo1) / 10
			q := query.NewCount(query.Filter{Dim: 1, Lo: a, Hi: a + w})
			q.Type = 1
			out[i] = q
		}
	}
	return out
}

// CheckMatchesFullScan fails the test unless idx agrees with a full scan of
// truth on every query.
func CheckMatchesFullScan(t *testing.T, idx index.Index, truth *colstore.Store, qs []query.Query) {
	t.Helper()
	full := index.NewFullScan(truth)
	for i, q := range qs {
		want := full.Execute(q)
		got := idx.Execute(q)
		if got.Count != want.Count || got.Sum != want.Sum {
			t.Fatalf("%s query %d (%s): got (count=%d sum=%d), want (count=%d sum=%d)",
				idx.Name(), i, q, got.Count, got.Sum, want.Count, want.Sum)
		}
	}
}

// CombineRows returns a copy of st with extra rows appended — the ground
// truth builder for ingest tests. Panics on malformed rows (test fixture
// bugs, not runtime conditions).
func CombineRows(st *colstore.Store, extra [][]int64) *colstore.Store {
	d := st.NumDims()
	cols := make([][]int64, d)
	for j := 0; j < d; j++ {
		cols[j] = append(append([]int64(nil), st.Column(j)...), make([]int64, len(extra))...)
		for i, row := range extra {
			cols[j][st.NumRows()+i] = row[j]
		}
	}
	out, err := colstore.FromColumns(cols, st.Names())
	if err != nil {
		panic(err)
	}
	return out
}

// Oracle is the naive full-scan aggregate reference for serving tests:
// writers record every row they ingest (concurrently, if they like), and
// Check verifies an index agrees with a full scan over everything
// recorded so far. It is the machine-checked ground truth the randomized
// harnesses quiesce against.
type Oracle struct {
	base *colstore.Store

	mu   sync.Mutex
	rows [][]int64
}

// NewOracle starts an oracle over the store's initial rows.
func NewOracle(base *colstore.Store) *Oracle { return &Oracle{base: base} }

// Add records ingested rows (defensively copied). Safe for concurrent
// writers.
func (o *Oracle) Add(rows ...[]int64) {
	copied := make([][]int64, len(rows))
	for i, r := range rows {
		copied[i] = append([]int64(nil), r...)
	}
	o.mu.Lock()
	o.rows = append(o.rows, copied...)
	o.mu.Unlock()
}

// NumRows returns the oracle's current row count (base + recorded).
func (o *Oracle) NumRows() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.base.NumRows() + len(o.rows)
}

// Snapshot materializes the oracle's current rows as a store. Callers
// must have quiesced their writers (rows recorded after the snapshot are
// not in it).
func (o *Oracle) Snapshot() *colstore.Store {
	o.mu.Lock()
	rows := append([][]int64(nil), o.rows...)
	o.mu.Unlock()
	return CombineRows(o.base, rows)
}

// Check fails the test unless idx agrees with a full scan of the oracle's
// current rows on every query — and, via the parameterless COUNT(*) that
// is always appended, that no row was lost or duplicated.
func (o *Oracle) Check(t *testing.T, idx index.Index, qs []query.Query) {
	t.Helper()
	truth := o.Snapshot()
	probe := make([]query.Query, 0, len(qs)+1+truth.NumDims())
	probe = append(probe, qs...)
	probe = append(probe, query.NewCount())
	for j := 0; j < truth.NumDims(); j++ {
		probe = append(probe, query.NewSum(j))
	}
	CheckMatchesFullScan(t, idx, truth, probe)
}

// CheckGrouped fails the test unless exec agrees with a grouped full
// scan of the oracle's current rows on every query, plus an unfiltered
// grouped COUNT per dimension (so no row can be lost or duplicated in
// any grouping).
func (o *Oracle) CheckGrouped(t *testing.T, name string, exec func(query.Query) colstore.GroupedResult, qs []query.Query) {
	t.Helper()
	truth := o.Snapshot()
	probe := make([]query.Query, 0, len(qs)+truth.NumDims())
	probe = append(probe, qs...)
	for j := 0; j < truth.NumDims(); j++ {
		probe = append(probe, query.NewCount().By(j))
	}
	CheckGroupedMatchesFullScan(t, name, exec, truth, probe)
}
