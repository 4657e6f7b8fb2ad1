package core

import (
	"testing"

	"repro/internal/testutil"
)

// Correctness, buffered rows and "rebuilds something" are rows of
// TestMaintenanceIsCopyOnWrite; what is left here is the reason the
// operation exists.
func TestReoptimizeRegionsCheaperThanFull(t *testing.T) {
	st := testutil.SmallTaxi(30000, 7)
	workA := testutil.SkewedQueries(st, 300, 8)
	idx := Build(st, workA, smallConfig(FullTsunami))
	workB := testutil.RandomQueries(st, 200, 9)

	_, _, incSecs, err := idx.ReoptimizeRegionsCopy(workB, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, fullSecs := idx.Reoptimize(workB)
	if incSecs > fullSecs {
		t.Errorf("incremental (%.3fs) should not exceed full rebuild (%.3fs)", incSecs, fullSecs)
	}
}
