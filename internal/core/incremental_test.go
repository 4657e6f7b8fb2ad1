package core

import (
	"bytes"
	"testing"

	"repro/internal/auggrid"
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

// A re-optimized region is laid out the way Build lays out the variant's
// regions: a GridTreeOnly region stays a Flood-style all-Independent grid,
// and a loaded index's regions keep their sort dim.
func TestReoptimizeLaysOutLikeBuild(t *testing.T) {
	st := testutil.SmallTaxi(20000, 1)
	work := testutil.SkewedQueries(st, 200, 2)
	shifted := testutil.SkewedQueries(st, 200, 3)

	t.Run("GridTreeOnly", func(t *testing.T) {
		idx := Build(st, work, smallConfig(GridTreeOnly))
		next, n, _, err := idx.ReoptimizeRegionsCopy(shifted, len(idx.grids))
		if err != nil || n == 0 {
			t.Fatalf("re-optimized %d regions, err %v", n, err)
		}
		for id, g := range next.grids {
			if g == nil {
				continue
			}
			for j, strat := range g.Layout().Skeleton {
				if strat.Kind != auggrid.Independent {
					t.Errorf("region %d dim %d is %v, want independent", id, j, strat.Kind)
				}
			}
		}
	})

	t.Run("Loaded", func(t *testing.T) {
		var buf bytes.Buffer
		if err := Build(st, work, smallConfig(FullTsunami)).Save(&buf); err != nil {
			t.Fatal(err)
		}
		idx, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		next, n, _, err := idx.ReoptimizeRegionsCopy(shifted, len(idx.grids))
		if err != nil || n == 0 {
			t.Fatalf("re-optimized %d regions, err %v", n, err)
		}
		for id, g := range next.grids {
			if g != nil && g.Layout().SortDim < 0 {
				t.Errorf("region %d has no sort dim", id)
			}
		}
		testutil.CheckMatchesFullScan(t, next, st, shifted)
	})
}
