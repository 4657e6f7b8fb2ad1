package core

import (
	"testing"

	"repro/internal/auggrid"
	"repro/internal/datasets"
	"repro/internal/testutil"
	"repro/internal/workload"
)

func smallConfig(v Variant) Config {
	return Config{
		Variant: v,
		Grid: auggrid.OptimizeConfig{
			Eval:     auggrid.EvalConfig{SampleSize: 1024, MaxQueries: 30},
			MaxCells: 1 << 12,
			MaxIters: 2,
		},
		MinRowsForGrid: 256,
	}
}

func TestTsunamiMatchesFullScanAllVariants(t *testing.T) {
	st := testutil.SmallTaxi(10000, 1)
	work := testutil.SkewedQueries(st, 120, 2)
	probe := testutil.RandomQueries(st, 120, 3)
	for _, v := range []Variant{FullTsunami, AugGridOnly, GridTreeOnly, Flood} {
		t.Run(v.String(), func(t *testing.T) {
			idx := Build(st, work, smallConfig(v))
			testutil.CheckMatchesFullScan(t, idx, st, work)
			testutil.CheckMatchesFullScan(t, idx, st, probe)
		})
	}
}

func TestTsunamiOnGeneratedDatasets(t *testing.T) {
	for _, mk := range []func(int, int64) *datasets.Dataset{
		datasets.TPCH, datasets.Taxi, datasets.Perfmon, datasets.Stocks,
	} {
		ds := mk(8000, 42)
		t.Run(ds.Name, func(t *testing.T) {
			work := workload.ForDataset(ds, 10, 7)
			idx := Build(ds.Store, work, smallConfig(FullTsunami))
			testutil.CheckMatchesFullScan(t, idx, ds.Store, work)
			probe := testutil.RandomQueries(ds.Store, 60, 11)
			testutil.CheckMatchesFullScan(t, idx, ds.Store, probe)
		})
	}
}

func TestTsunamiStatsSane(t *testing.T) {
	st := testutil.SmallTaxi(10000, 4)
	work := testutil.SkewedQueries(st, 200, 5)
	idx := Build(st, work, smallConfig(FullTsunami))
	s := idx.IndexStats()
	if s.NumLeafRegions < 1 {
		t.Fatal("no regions")
	}
	if s.NumGridTreeNodes < s.NumLeafRegions {
		t.Error("node count below region count")
	}
	if s.MinPointsPerRegion > s.MedianPointsPerRegion || s.MedianPointsPerRegion > s.MaxPointsPerRegion {
		t.Errorf("region point stats not ordered: %+v", s)
	}
	if s.TotalGridCells <= 0 {
		t.Error("no grid cells")
	}
	if idx.SizeBytes() == 0 {
		t.Error("zero index size")
	}
}

func TestTsunamiSkewedWorkloadSplits(t *testing.T) {
	st := testutil.SmallTaxi(20000, 6)
	work := testutil.SkewedQueries(st, 300, 7)
	idx := Build(st, work, smallConfig(FullTsunami))
	if s := idx.IndexStats(); s.NumLeafRegions < 2 {
		t.Errorf("regions = %d, want >= 2 under a skewed workload", s.NumLeafRegions)
	}
}

func TestAugGridOnlyHasOneRegion(t *testing.T) {
	st := testutil.SmallTaxi(5000, 8)
	work := testutil.SkewedQueries(st, 100, 9)
	idx := Build(st, work, smallConfig(AugGridOnly))
	if s := idx.IndexStats(); s.NumLeafRegions != 1 {
		t.Errorf("regions = %d, want 1 for AugGridOnly", s.NumLeafRegions)
	}
}

func TestGridTreeOnlyHasIndependentSkeletons(t *testing.T) {
	st := testutil.SmallTaxi(10000, 10)
	work := testutil.SkewedQueries(st, 200, 11)
	idx := Build(st, work, smallConfig(GridTreeOnly))
	for _, g := range idx.grids {
		if g == nil {
			continue
		}
		for j, strat := range g.Layout().Skeleton {
			if strat.Kind != auggrid.Independent {
				t.Errorf("GridTreeOnly region grid dim %d strategy %v, want independent", j, strat.Kind)
			}
		}
	}
}

func TestTsunamiReoptimize(t *testing.T) {
	st := testutil.SmallTaxi(8000, 12)
	workA := testutil.SkewedQueries(st, 100, 13)
	workB := testutil.RandomQueries(st, 100, 14)
	idx := Build(st, workA, smallConfig(FullTsunami))
	nidx, secs := idx.Reoptimize(workB)
	if secs <= 0 {
		t.Error("reoptimize time should be positive")
	}
	testutil.CheckMatchesFullScan(t, nidx, st, workB)
}

func TestTsunamiBuildStats(t *testing.T) {
	st := testutil.SmallTaxi(5000, 15)
	work := testutil.SkewedQueries(st, 100, 16)
	idx := Build(st, work, smallConfig(FullTsunami))
	bs := idx.BuildStats()
	if bs.OptimizeSeconds <= 0 || bs.SortSeconds < 0 {
		t.Errorf("implausible build stats: %+v", bs)
	}
}

func TestTsunamiEmptyWorkloadStillAnswers(t *testing.T) {
	st := testutil.SmallTaxi(3000, 17)
	idx := Build(st, nil, smallConfig(FullTsunami))
	probe := testutil.RandomQueries(st, 50, 18)
	testutil.CheckMatchesFullScan(t, idx, st, probe)
}
