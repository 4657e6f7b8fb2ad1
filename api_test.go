// Tests of the public API: the end-to-end paths a downstream user relies
// on, validated against a full scan.
package tsunami_test

import (
	"testing"

	tsunami "repro"
)

func smallOptions() tsunami.Options {
	return tsunami.Options{OptimizerIters: 2, SampleSize: 1024, MaxOptQueries: 24}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ds := tsunami.GenerateTaxi(20_000, 1)
	work := tsunami.WorkloadFor(ds, 20, 2)
	idx := tsunami.New(ds.Store, work, smallOptions())
	full := tsunami.NewFullScan(ds.Store)
	for _, q := range work {
		want := full.Execute(q)
		got := idx.Execute(q)
		if got.Count != want.Count {
			t.Fatalf("query %s: got %d, want %d", q, got.Count, want.Count)
		}
	}
	if idx.SizeBytes() == 0 {
		t.Error("index size should be positive")
	}
	s := idx.IndexStats()
	if s.NumLeafRegions < 1 {
		t.Error("expected at least one region")
	}
}

func TestPublicAPITableConstruction(t *testing.T) {
	table, err := tsunami.NewTableFromRows([][]int64{
		{1, 10}, {2, 20}, {3, 30},
	}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if table.NumRows() != 3 || table.NumDims() != 2 {
		t.Fatalf("table shape (%d, %d)", table.NumRows(), table.NumDims())
	}
	if _, err := tsunami.NewTable([][]int64{{1}, {2, 3}}, nil); err == nil {
		t.Error("ragged columns should fail")
	}
}

func TestPublicAPISumQuery(t *testing.T) {
	cols := [][]int64{{1, 2, 3, 4}, {10, 20, 30, 40}}
	table, err := tsunami.NewTable(cols, []string{"k", "v"})
	if err != nil {
		t.Fatal(err)
	}
	idx := tsunami.New(table, nil, smallOptions())
	res := idx.Execute(tsunami.Sum(1, tsunami.Filter{Dim: 0, Lo: 2, Hi: 3}))
	if res.Sum != 50 || res.Count != 2 {
		t.Errorf("sum = (%d, %d), want (50, 2)", res.Sum, res.Count)
	}
}

func TestPublicAPIAllBaselinesAgree(t *testing.T) {
	ds := tsunami.GenerateStocks(15_000, 3)
	work := tsunami.WorkloadFor(ds, 15, 4)
	full := tsunami.NewFullScan(ds.Store)
	indexes := []tsunami.Index{
		tsunami.New(ds.Store, work, smallOptions()),
		tsunami.NewAugGridOnly(ds.Store, work, smallOptions()),
		tsunami.NewGridTreeOnly(ds.Store, work, smallOptions()),
		tsunami.NewFlood(ds.Store, work, smallOptions()),
		tsunami.NewKDTree(ds.Store, work, 1024),
		tsunami.NewZOrder(ds.Store, 1024),
		tsunami.NewHyperoctree(ds.Store, 1024),
		tsunami.NewSingleDim(ds.Store, work, -1),
	}
	for _, q := range work {
		want := full.Execute(q).Count
		for _, idx := range indexes {
			if got := idx.Execute(q).Count; got != want {
				t.Fatalf("%s on %s: got %d, want %d", idx.Name(), q, got, want)
			}
		}
	}
}

// TestPublicAPISplitFilters builds Query literals that filter one dim twice
// — Count and Sum normalize duplicates away, a literal does not — and
// requires every index to answer them as the full scan does: the rows
// matching both filters, whichever comes first, and none when the two
// exclude each other.
func TestPublicAPISplitFilters(t *testing.T) {
	ds := tsunami.GenerateTaxi(20_000, 1)
	work := tsunami.WorkloadFor(ds, 15, 2)
	full := tsunami.NewFullScan(ds.Store)
	indexes := []tsunami.Index{
		tsunami.New(ds.Store, work, smallOptions()),
		tsunami.NewAugGridOnly(ds.Store, work, smallOptions()),
		tsunami.NewGridTreeOnly(ds.Store, work, smallOptions()),
		tsunami.NewFlood(ds.Store, work, smallOptions()),
		tsunami.NewKDTree(ds.Store, work, 1024),
		tsunami.NewZOrder(ds.Store, 1024),
		tsunami.NewHyperoctree(ds.Store, 1024),
		tsunami.NewSingleDim(ds.Store, work, -1),
	}
	nd := ds.Store.NumDims()
	for d := 0; d < nd; d++ {
		lo, hi := ds.Store.MinMax(d)
		a, b := lo+(hi-lo)/4, lo+(hi-lo)*2/3
		ge := tsunami.Filter{Dim: d, Lo: a, Hi: tsunami.NoHi}
		le := tsunami.Filter{Dim: d, Lo: tsunami.NoLo, Hi: b}
		apart := tsunami.Filter{Dim: d, Lo: tsunami.NoLo, Hi: a - 1}
		other := tsunami.Filter{Dim: (d + 1) % nd, Lo: tsunami.NoLo, Hi: tsunami.NoHi}
		sum := tsunami.Sum(d)
		sum.Filters = []tsunami.Filter{le, ge}
		for _, q := range []tsunami.Query{
			{Filters: []tsunami.Filter{ge, le}, Type: -1},
			sum,
			{Filters: []tsunami.Filter{ge, other, le}, Type: -1},
			{Filters: []tsunami.Filter{ge, apart}, Type: -1},
		} {
			want := full.Execute(q)
			for _, idx := range indexes {
				if got := idx.Execute(q); got.Count != want.Count || got.Sum != want.Sum {
					t.Errorf("%s on %s: got (%d, %d), want (%d, %d)", idx.Name(), q, got.Count, got.Sum, want.Count, want.Sum)
				}
			}
		}
	}
}

func TestPublicAPIWorkloadShift(t *testing.T) {
	ds := tsunami.GenerateTPCH(15_000, 5)
	workA := tsunami.WorkloadFor(ds, 15, 6)
	workB := tsunami.GenerateWorkload(ds.Store, []tsunami.TypeSpec{
		{Name: "b", Dims: []tsunami.DimSpec{
			{Dim: 1, Sel: 0.05, Jitter: 0.1, Skew: tsunami.SkewExtremes},
		}},
	}, 30, 7)
	idx := tsunami.New(ds.Store, workA, smallOptions())
	re, secs := idx.Reoptimize(workB)
	if secs <= 0 {
		t.Error("reoptimize should take measurable time")
	}
	full := tsunami.NewFullScan(ds.Store)
	for _, q := range workB {
		if re.Execute(q).Count != full.Execute(q).Count {
			t.Fatalf("reoptimized index wrong on %s", q)
		}
	}
}

func TestGeneratorsExposedViaAPI(t *testing.T) {
	for name, ds := range map[string]*tsunami.Dataset{
		"tpch":       tsunami.GenerateTPCH(100, 1),
		"taxi":       tsunami.GenerateTaxi(100, 1),
		"perfmon":    tsunami.GeneratePerfmon(100, 1),
		"stocks":     tsunami.GenerateStocks(100, 1),
		"uniform":    tsunami.GenerateUniform(100, 6, 1),
		"correlated": tsunami.GenerateCorrelated(100, 6, 1),
	} {
		if ds.Rows() != 100 {
			t.Errorf("%s rows = %d", name, ds.Rows())
		}
	}
}
