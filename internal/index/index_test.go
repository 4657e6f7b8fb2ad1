package index

import (
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
)

func store(t *testing.T) *colstore.Store {
	t.Helper()
	s, err := colstore.FromRows([][]int64{
		{1, 5}, {2, 6}, {3, 7}, {4, 8}, {5, 9},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFullScanCount(t *testing.T) {
	f := NewFullScan(store(t))
	res := f.Execute(query.NewCount(query.Filter{Dim: 0, Lo: 2, Hi: 4}))
	if res.Count != 3 {
		t.Errorf("count = %d, want 3", res.Count)
	}
	if f.SizeBytes() != 0 {
		t.Error("full scan should have zero index size")
	}
	if f.Name() != "FullScan" {
		t.Errorf("name = %q", f.Name())
	}
}

func TestFullScanSum(t *testing.T) {
	f := NewFullScan(store(t))
	res := f.Execute(query.NewSum(1, query.Filter{Dim: 0, Lo: 1, Hi: 2}))
	if res.Sum != 11 {
		t.Errorf("sum = %d, want 11", res.Sum)
	}
}

// TestRangePlan pins the shared plan: an empty range is not planned, Cost
// is Price of the planned rows (8 bytes a row for each filter, SUM and
// group-key column), and Execute scans the ranges flat or grouped.
func TestRangePlan(t *testing.T) {
	s := store(t)
	q := query.NewSum(1, query.Filter{Dim: 0, Lo: 2, Hi: 4}).By(0)
	p := NewRangePlan(s, q)
	p.Add(0, 2, false)
	p.Add(3, 3, true)
	p.Add(4, 2, false)
	p.Add(2, 4, true)
	if len(p.Ranges) != 2 {
		t.Fatalf("planned %v, want the two non-empty ranges", p.Ranges)
	}
	if rows, bytes := p.Cost(); rows != 4 || bytes != 4*8*3 {
		t.Errorf("Cost = (%d, %d), want (4, 96): one filter, the SUM and the key column", rows, bytes)
	}
	got := p.Execute()
	want := []colstore.GroupAgg{{Key: 2, Count: 1, Sum: 6}, {Key: 3, Count: 1, Sum: 7}, {Key: 4, Count: 1, Sum: 8}}
	if !slices.Equal(got.Groups, want) || got.Count != 3 || got.Sum != 21 {
		t.Errorf("grouped Execute = %+v, want groups %v", got, want)
	}
	if res := NewFullScan(s).Execute(query.NewCount().By(1)); len(res.Groups) != 5 || res.Count != 5 {
		t.Errorf("FullScan grouped by a key column = %+v, want 5 groups of one", res)
	}
}

func TestSelectivity(t *testing.T) {
	s := store(t)
	sel := Selectivity(s, query.NewCount(query.Filter{Dim: 0, Lo: 1, Hi: 2}))
	if sel != 0.4 {
		t.Errorf("selectivity = %f, want 0.4", sel)
	}
	if sel := Selectivity(s, query.NewCount()); sel != 1.0 {
		t.Errorf("unfiltered selectivity = %f, want 1", sel)
	}
}

func TestDimSelectivity(t *testing.T) {
	s := store(t)
	q := query.NewCount(
		query.Filter{Dim: 0, Lo: 1, Hi: 1},
		query.Filter{Dim: 1, Lo: 5, Hi: 9},
	)
	if sel := DimSelectivity(s, q, 0); sel != 0.2 {
		t.Errorf("dim 0 selectivity = %f, want 0.2", sel)
	}
	if sel := DimSelectivity(s, q, 1); sel != 1.0 {
		t.Errorf("dim 1 selectivity = %f, want 1.0", sel)
	}
	// Unfiltered dim reports 1.
	q2 := query.NewCount(query.Filter{Dim: 0, Lo: 1, Hi: 1})
	if sel := DimSelectivity(s, q2, 1); sel != 1.0 {
		t.Errorf("unfiltered dim selectivity = %f, want 1", sel)
	}
}

func TestSampleRowsAndSelectivity(t *testing.T) {
	if got := NewSample(store(t), 10).cols[0]; !slices.Equal(got, []int64{1, 2, 3, 4, 5}) {
		t.Errorf("small table sample = %v, want every row", got)
	}
	eleven, err := colstore.FromColumns([][]int64{{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := NewSample(eleven, 3).cols[0]; !slices.Equal(got, []int64{4, 7, 10}) {
		t.Errorf("strided sample = %v, want rows 0, 3 and 6 sorted: [4 7 10]", got)
	}
	s := store(t)
	sample := NewSample(s, 100)
	f0 := query.Filter{Dim: 0, Lo: 1, Hi: 2}
	if sel := sample.Selectivity(f0); sel != Selectivity(s, query.NewCount(f0)) {
		t.Errorf("one filter on a full sample = %f, want the exact selectivity", sel)
	}
	if NewSample(colstore.New("a"), 100).Selectivity(f0) != 1 {
		t.Error("an empty sample must report 1")
	}
}
