package tsunami_test

import (
	"testing"

	tsunami "repro"
)

func TestRobustIndexOnDirtyData(t *testing.T) {
	// Stocks-like data plus a sprinkle of corrupt rows: plain FMs would be
	// poisoned; NewRobust diverts the outliers and stays correct.
	ds := tsunami.GenerateStocks(15_000, 1)
	closeCol := ds.Store.Column(2)
	for i := 0; i < len(closeCol); i += 997 {
		closeCol[i] = 1 // corrupt: close of one cent
	}
	work := tsunami.WorkloadFor(ds, 15, 2)
	idx := tsunami.NewRobust(ds.Store, work, smallOptions(), 0.01)
	full := tsunami.NewFullScan(ds.Store)
	for _, q := range work {
		if got, want := idx.Execute(q).Count, full.Execute(q).Count; got != want {
			t.Fatalf("robust index wrong on %s: got %d, want %d", q, got, want)
		}
	}
}

func TestShiftDetectorViaPublicAPI(t *testing.T) {
	ds := tsunami.GenerateTaxi(15_000, 3)
	work := tsunami.WorkloadFor(ds, 30, 4)
	det := tsunami.NewShiftDetector(ds.Store, work)
	if det.NumTypes() < 3 {
		t.Fatalf("fingerprinted %d types", det.NumTypes())
	}
	// A drastically different workload must trigger.
	drifted := tsunami.GenerateWorkload(ds.Store, []tsunami.TypeSpec{
		{Name: "new", Dims: []tsunami.DimSpec{
			{Dim: 5, Sel: 0.01, Jitter: 0.1, Skew: tsunami.SkewExtremes},
		}},
	}, 256, 5) // a full detector window
	for _, q := range drifted {
		det.Observe(q)
	}
	if !det.Analyze().ShiftDetected {
		t.Error("public detector missed an obvious shift")
	}
}

func TestInsertAndMergeViaPublicAPI(t *testing.T) {
	ds := tsunami.GenerateTPCH(10_000, 6)
	work := tsunami.WorkloadFor(ds, 10, 7)
	rows := make([][]int64, 100)
	for i := range rows {
		rows[i] = make([]int64, ds.Dims())
		for j := range rows[i] {
			rows[i][j] = 42
		}
	}
	idx, err := tsunami.New(ds.Store, work, smallOptions()).CopyWithInserts(rows)
	if err != nil {
		t.Fatal(err)
	}
	q := tsunami.Count(tsunami.Filter{Dim: 0, Lo: 42, Hi: 42}, tsunami.Filter{Dim: 1, Lo: 42, Hi: 42})
	if got := idx.Execute(q).Count; got != 100 {
		t.Fatalf("pre-merge count = %d, want 100", got)
	}
	if idx, _, err = idx.MergedCopy(); err != nil {
		t.Fatal(err)
	}
	if got := idx.Execute(q).Count; got != 100 {
		t.Fatalf("post-merge count = %d, want 100", got)
	}
}
