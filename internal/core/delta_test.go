package core

import (
	"math/rand"
	"testing"

	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/testutil"
)

func TestInsertVisibleBeforeMerge(t *testing.T) {
	st := testutil.SmallTaxi(5000, 1)
	work := testutil.SkewedQueries(st, 100, 2)
	idx := Build(st, work, smallConfig(FullTsunami))

	// Insert rows with a sentinel value far outside the existing domain.
	var rows [][]int64
	for i := 0; i < 10; i++ {
		rows = append(rows, []int64{2_000_000, 2_000_100, 50, 500, 3})
	}
	idx, err := idx.CopyWithInserts(rows)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumBuffered() != 10 {
		t.Fatalf("buffered = %d, want 10", idx.NumBuffered())
	}
	res := idx.Execute(query.NewCount(query.Filter{Dim: 0, Lo: 2_000_000, Hi: 2_000_000}))
	if res.Count != 10 {
		t.Errorf("inserted rows not visible: count = %d, want 10", res.Count)
	}
}

func TestInsertWrongArity(t *testing.T) {
	st := testutil.SmallTaxi(2000, 3)
	idx := Build(st, nil, smallConfig(FullTsunami))
	if _, err := idx.CopyWithInserts([][]int64{{1, 2}}); err == nil {
		t.Error("short row should be rejected")
	}
}

func TestInsertQueryMergeQueryCycle(t *testing.T) {
	st := testutil.SmallTaxi(5000, 8)
	work := testutil.SkewedQueries(st, 100, 9)
	idx := Build(st, work, smallConfig(FullTsunami))
	rng := rand.New(rand.NewSource(10))

	var all [][]int64
	for cycle := 0; cycle < 3; cycle++ {
		var rows [][]int64
		for i := 0; i < 50; i++ {
			rows = append(rows, []int64{
				rng.Int63n(1_000_000), rng.Int63n(1_100_000),
				rng.Int63n(1000), rng.Int63n(3000), 1 + rng.Int63n(6),
			})
		}
		all = append(all, rows...)
		var err error
		if idx, err = idx.CopyWithInserts(rows); err != nil {
			t.Fatal(err)
		}
		// Queries must be correct with a half-full buffer too.
		truth := buildTruth(t, st, all)
		full := index.NewFullScan(truth)
		probe := testutil.RandomQueries(st, 25, int64(11+cycle))
		for _, q := range probe {
			if got, want := idx.Execute(q).Count, full.Execute(q).Count; got != want {
				t.Fatalf("cycle %d pre-merge %s: got %d, want %d", cycle, q, got, want)
			}
		}
		if idx, _, err = idx.MergedCopy(); err != nil {
			t.Fatal(err)
		}
		for _, q := range probe {
			if got, want := idx.Execute(q).Count, full.Execute(q).Count; got != want {
				t.Fatalf("cycle %d post-merge %s: got %d, want %d", cycle, q, got, want)
			}
		}
	}
}

// TestPlanCostChargesOnlyRoutedDeltas pins admission's price of buffered
// rows to the rows Execute folds in: a plan pays for the delta buffers of
// the regions it routes to and no others, so a probe routed away from
// every buffered row is priced exactly as before the insert, and no probe
// is priced below the rows it scans.
func TestPlanCostChargesOnlyRoutedDeltas(t *testing.T) {
	st := testutil.SmallTaxi(10000, 4)
	base := Build(st, testutil.SkewedQueries(st, 100, 5), smallConfig(FullTsunami))
	// 500 buffered rows, all in one region: copies of an existing row.
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = st.Row(0, nil)
	}
	idx, err := base.CopyWithInserts(rows)
	if err != nil {
		t.Fatal(err)
	}
	away := 0
	for _, q := range testutil.RandomQueries(st, 200, 6) {
		p := idx.Plan(q, index.Exec{}).(*execContext)
		routed := false
		for _, r := range p.regions {
			routed = routed || idx.deltas[r.ID] != nil
		}
		priced, _ := p.Cost()
		res := p.Execute()
		if priced < res.PointsScanned {
			t.Errorf("%s: priced %d rows, scanned %d", q, priced, res.PointsScanned)
		}
		if routed {
			continue
		}
		away++
		bp := base.Plan(q, index.Exec{})
		before, _ := bp.Cost()
		bp.Release()
		if priced != before {
			t.Errorf("%s routes away from every buffered row: priced %d rows, %d before the insert", q, priced, before)
		}
	}
	if away == 0 {
		t.Fatal("no probe routed away from the buffered rows")
	}
}

// TestTraceDeltaCountsRoutedBuffers pins the trace's delta stage to the
// buffered rows the query actually scans: a query routed away from every
// buffered row reads "0 of M", one routed to them reads "M of M".
func TestTraceDeltaCountsRoutedBuffers(t *testing.T) {
	st := testutil.SmallTaxi(10000, 4)
	// 500 buffered rows, all in one region: copies of an existing row.
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = st.Row(0, nil)
	}
	idx, err := Build(st, testutil.SkewedQueries(st, 100, 5), smallConfig(FullTsunami)).CopyWithInserts(rows)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[bool]bool{}
	for _, q := range testutil.RandomQueries(st, 200, 6) {
		routed := false
		for _, r := range idx.tree.FindRegions(q, nil) {
			routed = routed || idx.deltas[r.ID] != nil
		}
		if seen[routed] {
			continue
		}
		seen[routed] = true
		var tr obs.QueryTrace
		idx.ExecuteWith(q, index.Exec{Trace: &tr})
		want := "0 of 500 buffered rows scanned"
		if routed {
			want = "500 of 500 buffered rows scanned"
		}
		var got string
		for _, stage := range tr.Stages {
			if stage.Name == "delta" {
				got = stage.Detail
			}
		}
		if got != want {
			t.Errorf("%s (routed to the buffer: %v): delta stage says %q, want %q", q, routed, got, want)
		}
	}
	if !seen[false] || !seen[true] {
		t.Fatalf("probes covered routed=%v only; the test needs both", seen)
	}
}

// buildTruth appends inserted rows to a copy of the original table.
func buildTruth(t *testing.T, st *colstore.Store, rows [][]int64) *colstore.Store {
	t.Helper()
	d := st.NumDims()
	cols := make([][]int64, d)
	for j := 0; j < d; j++ {
		cols[j] = append(append([]int64(nil), st.Column(j)...), nil...)
		for _, r := range rows {
			cols[j] = append(cols[j], r[j])
		}
	}
	truth, err := colstore.FromColumns(cols, st.Names())
	if err != nil {
		t.Fatal(err)
	}
	return truth
}
