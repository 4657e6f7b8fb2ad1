package core

import (
	"math/rand"
	"testing"

	"repro/internal/colstore"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestSplitRangeMovesExactRows is the core invariant of range extraction:
// the moved set is exactly the rows in [lo, hi] on the split dimension,
// the remainder answers every query as a full scan over the kept rows,
// and the original index is untouched.
func TestSplitRangeMovesExactRows(t *testing.T) {
	st := testutil.SmallTaxi(6000, 201)
	work := testutil.SkewedQueries(st, 100, 202)
	idx := Build(st, work, smallConfig(FullTsunami))

	// Buffer some rows too: in-range buffered rows must join the moved
	// set, out-of-range ones must fold into the remainder.
	rng := rand.New(rand.NewSource(203))
	var buffered [][]int64
	for i := 0; i < 150; i++ {
		buffered = append(buffered, []int64{
			rng.Int63n(1_000_000), rng.Int63n(1_100_000),
			rng.Int63n(1000), rng.Int63n(3000), 1 + rng.Int63n(6),
		})
	}
	idx, err := idx.CopyWithInserts(buffered)
	if err != nil {
		t.Fatal(err)
	}

	lo, hi := st.MinMax(0)
	cut := lo + (hi-lo)/3
	cut2 := lo + 2*(hi-lo)/3

	totalBefore := idx.Execute(query.NewCount()).Count
	rem, moved, err := idx.SplitRange(0, cut, cut2)
	if err != nil {
		t.Fatal(err)
	}

	// The original keeps serving everything.
	if got := idx.Execute(query.NewCount()).Count; got != totalBefore {
		t.Fatalf("original index changed: count %d, want %d", got, totalBefore)
	}
	if got := idx.NumBuffered(); got != 150 {
		t.Fatalf("original buffered = %d, want 150", got)
	}

	// Every moved row is in range; their count matches a scan.
	wantMoved := idx.Execute(query.NewCount(query.Filter{Dim: 0, Lo: cut, Hi: cut2})).Count
	if uint64(len(moved)) != wantMoved {
		t.Fatalf("moved %d rows, want %d", len(moved), wantMoved)
	}
	for i, row := range moved {
		if row[0] < cut || row[0] > cut2 {
			t.Fatalf("moved row %d has dim0=%d outside [%d, %d]", i, row[0], cut, cut2)
		}
	}

	// The remainder has no buffered rows, none of the moved range, and
	// agrees with a full scan of kept rows on every aggregate.
	if got := rem.NumBuffered(); got != 0 {
		t.Fatalf("remainder buffered = %d, want 0", got)
	}
	if got := rem.Execute(query.NewCount(query.Filter{Dim: 0, Lo: cut, Hi: cut2})).Count; got != 0 {
		t.Fatalf("remainder still holds %d in-range rows", got)
	}
	keptTruth := keptStore(t, st, buffered, 0, cut, cut2)
	probe := append(testutil.RandomQueries(st, 80, 204), query.NewCount())
	for i := range st.Names() {
		probe = append(probe, query.NewSum(i))
	}
	testutil.CheckMatchesFullScan(t, rem, keptTruth, probe)

	// The remainder resumes normal life: inserts (even back into the
	// extracted range) and merges still work.
	if rem, err = rem.CopyWithInserts([][]int64{{cut, cut, 1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if rem, _, err = rem.MergedCopy(); err != nil {
		t.Fatal(err)
	}
	if got := rem.Execute(query.NewCount(query.Filter{Dim: 0, Lo: cut, Hi: cut2})).Count; got != 1 {
		t.Fatalf("post-split insert not visible: count %d, want 1", got)
	}
}

// TestSplitRangeEdges pins degenerate splits: a range holding nothing, a
// range holding everything, and bad arguments.
func TestSplitRangeEdges(t *testing.T) {
	st := testutil.SmallTaxi(3000, 211)
	idx := Build(st, testutil.SkewedQueries(st, 60, 212), smallConfig(FullTsunami))
	total := idx.Execute(query.NewCount()).Count

	rem, moved, err := idx.SplitRange(0, 5_000_000, 6_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 0 {
		t.Fatalf("empty range moved %d rows", len(moved))
	}
	if got := rem.Execute(query.NewCount()).Count; got != total {
		t.Fatalf("no-op split lost rows: %d, want %d", got, total)
	}

	lo, hi := st.MinMax(0)
	rem, moved, err = idx.SplitRange(0, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(moved)) != total {
		t.Fatalf("full split moved %d rows, want %d", len(moved), total)
	}
	if got := rem.Execute(query.NewCount()).Count; got != 0 {
		t.Fatalf("full split kept %d rows", got)
	}

	if _, _, err := idx.SplitRange(99, 0, 1); err == nil {
		t.Error("out-of-range dim accepted")
	}
	if _, _, err := idx.SplitRange(0, 10, 5); err == nil {
		t.Error("inverted range accepted")
	}
}

// keptStore rebuilds ground truth: base rows plus buffered rows, minus
// everything in [lo, hi] on dim.
func keptStore(t *testing.T, st *colstore.Store, extra [][]int64, dim int, lo, hi int64) *colstore.Store {
	t.Helper()
	d := st.NumDims()
	cols := make([][]int64, d)
	row := make([]int64, d)
	keep := func(r []int64) {
		if r[dim] >= lo && r[dim] <= hi {
			return
		}
		for j := 0; j < d; j++ {
			cols[j] = append(cols[j], r[j])
		}
	}
	for i := 0; i < st.NumRows(); i++ {
		keep(st.Row(i, row))
	}
	for _, r := range extra {
		keep(r)
	}
	out, err := colstore.FromColumns(cols, st.Names())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var _ index.Index = (*Tsunami)(nil)
