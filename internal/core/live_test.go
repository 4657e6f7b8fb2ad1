package core

import (
	"testing"

	"repro/internal/query"
	"repro/internal/testutil"
)

// TestCopyWithInsertsLeavesOriginalUntouched pins the copy-on-write ingest
// contract: the copy sees the new rows immediately, the receiver sees
// nothing, and the two share the clustered data.
func TestCopyWithInsertsLeavesOriginalUntouched(t *testing.T) {
	st := testutil.SmallTaxi(6000, 11)
	work := testutil.SkewedQueries(st, 100, 12)
	idx := Build(st, work, smallConfig(FullTsunami))

	q := query.NewCount(query.Filter{Dim: 0, Lo: 7_000_000, Hi: 7_000_000})
	if got := idx.Execute(q).Count; got != 0 {
		t.Fatalf("probe value already present: count = %d", got)
	}

	rows := [][]int64{
		{7_000_000, 7_000_050, 3, 3, 3},
		{7_000_000, 7_000_060, 4, 4, 4},
	}
	cp, err := idx.CopyWithInserts(rows)
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.Execute(q).Count; got != 2 {
		t.Errorf("copy: count = %d, want 2", got)
	}
	if got := cp.NumBuffered(); got != 2 {
		t.Errorf("copy: %d buffered, want 2", got)
	}
	if got := idx.Execute(q).Count; got != 0 {
		t.Errorf("original mutated: count = %d, want 0", got)
	}
	if got := idx.NumBuffered(); got != 0 {
		t.Errorf("original mutated: %d buffered, want 0", got)
	}
	if cp.Store() != idx.Store() {
		t.Error("copy should share the clustered store")
	}

	// Chained copies keep earlier rows and dimension mismatches are
	// rejected without corrupting the lineage.
	if _, err := cp.CopyWithInserts([][]int64{{1, 2}}); err == nil {
		t.Error("short row accepted")
	}
	cp2, err := cp.CopyWithInserts([][]int64{{7_000_000, 7_000_070, 5, 5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := cp2.Execute(q).Count; got != 3 {
		t.Errorf("chained copy: count = %d, want 3", got)
	}
	if got := cp.Execute(q).Count; got != 2 {
		t.Errorf("chain mutated its parent: count = %d, want 2", got)
	}
}
