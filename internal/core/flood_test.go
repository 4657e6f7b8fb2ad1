package core

import (
	"testing"

	"repro/internal/auggrid"
	"repro/internal/testutil"
)

// floodConfig is a small build of the Flood variant.
func floodConfig() Config {
	return Config{Variant: Flood, Grid: auggrid.OptimizeConfig{
		Eval:     auggrid.EvalConfig{SampleSize: 1024, MaxQueries: 40},
		MaxCells: 1 << 12,
		MaxIters: 3,
	}}
}

// floodLayout is the layout of a Flood index's one grid.
func floodLayout(t *testing.T, idx *Tsunami) auggrid.Layout {
	t.Helper()
	if len(idx.grids) != 1 || idx.grids[0] == nil {
		t.Fatalf("Flood built %d regions (grid: %v), want one gridded region", len(idx.grids), len(idx.grids) == 1 && idx.grids[0] != nil)
	}
	return idx.grids[0].Layout()
}

func TestFloodMatchesFullScan(t *testing.T) {
	st := testutil.SmallTaxi(8000, 1)
	qs := testutil.RandomQueries(st, 150, 2)
	idx := Build(st, qs[:60], floodConfig())
	testutil.CheckMatchesFullScan(t, idx, st, qs)
}

func TestFloodSkeletonIsIndependent(t *testing.T) {
	st := testutil.SmallTaxi(5000, 3)
	qs := testutil.RandomQueries(st, 100, 4)
	idx := Build(st, qs, floodConfig())
	for j, strat := range floodLayout(t, idx).Skeleton {
		if strat.Kind != auggrid.Independent {
			t.Errorf("dim %d has strategy %v; Flood must be all-independent", j, strat.Kind)
		}
	}
}

func TestFloodUsesSortDim(t *testing.T) {
	st := testutil.SmallTaxi(5000, 5)
	qs := testutil.RandomQueries(st, 100, 6)
	idx := Build(st, qs, floodConfig())
	if floodLayout(t, idx).SortDim < 0 {
		t.Error("Flood should pick a sort dimension")
	}
}

func TestFloodReoptimize(t *testing.T) {
	st := testutil.SmallTaxi(5000, 7)
	qsA := testutil.RandomQueries(st, 60, 8)
	qsB := testutil.SkewedQueries(st, 60, 9)
	idx := Build(st, qsA, floodConfig())
	nidx, secs := idx.Reoptimize(qsB)
	if secs < 0 {
		t.Error("negative reoptimize time")
	}
	if nidx.Name() != "Flood" {
		t.Errorf("re-optimized index is %s, want Flood", nidx.Name())
	}
	testutil.CheckMatchesFullScan(t, nidx, st, qsB)
}

func TestFloodCellBudgetRespected(t *testing.T) {
	st := testutil.SmallTaxi(8000, 10)
	qs := testutil.RandomQueries(st, 100, 11)
	cfg := floodConfig()
	cfg.Grid.MaxCells = 256
	idx := Build(st, qs, cfg)
	if n := idx.IndexStats().TotalGridCells; n > 256 {
		t.Errorf("cells = %d, budget 256", n)
	}
}
