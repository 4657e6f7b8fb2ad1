package kdtree

import (
	"testing"

	"repro/internal/query"
	"repro/internal/testutil"
)

func TestKDTreeMatchesFullScan(t *testing.T) {
	st := testutil.SmallTaxi(8000, 1)
	qs := testutil.RandomQueries(st, 150, 2)
	idx := Build(st, qs[:50], 256)
	testutil.CheckMatchesFullScan(t, idx, st, qs)
}

func TestKDTreeSmallPageSize(t *testing.T) {
	st := testutil.SmallTaxi(2000, 3)
	qs := testutil.RandomQueries(st, 80, 4)
	idx := Build(st, qs[:20], 16)
	testutil.CheckMatchesFullScan(t, idx, st, qs)
}

func TestKDTreePageSizeRespected(t *testing.T) {
	st := testutil.SmallTaxi(4000, 5)
	idx := Build(st, nil, 128)
	var walk func(nd *node) int
	walk = func(nd *node) int {
		if nd.leaf {
			if nd.end-nd.start > 128 {
				t.Errorf("leaf holds %d points, page size 128", nd.end-nd.start)
			}
			return nd.end - nd.start
		}
		return walk(nd.left) + walk(nd.right)
	}
	if total := walk(idx.root); total != 4000 {
		t.Errorf("leaves cover %d points, want 4000", total)
	}
}

func TestKDTreeUnfilteredQueryScansAll(t *testing.T) {
	st := testutil.SmallTaxi(1000, 6)
	idx := Build(st, nil, 64)
	res := idx.Execute(query.NewCount())
	if res.Count != 1000 {
		t.Errorf("count = %d, want 1000", res.Count)
	}
}

func TestKDTreeSizeAndStats(t *testing.T) {
	st := testutil.SmallTaxi(4000, 9)
	idx := Build(st, nil, 256)
	if idx.SizeBytes() == 0 {
		t.Error("size should be positive")
	}
	if idx.NumNodes() < 15 {
		t.Errorf("nodes = %d, expected a real tree", idx.NumNodes())
	}
	bs := idx.BuildStats()
	if bs.SortSeconds < 0 || bs.OptimizeSeconds < 0 {
		t.Error("negative build times")
	}
}

func TestKDTreeDuplicateHeavyColumn(t *testing.T) {
	// Degenerate data: one dimension nearly constant must not loop forever.
	st := testutil.SmallTaxi(3000, 10)
	col := st.Column(4)
	for i := range col {
		col[i] = 1 // constant
	}
	qs := testutil.RandomQueries(st, 50, 11)
	idx := Build(st, nil, 64)
	testutil.CheckMatchesFullScan(t, idx, st, qs)
}
