package octree

import (
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/testutil"
)

func TestOctreeMatchesFullScan(t *testing.T) {
	st := testutil.SmallTaxi(8000, 1)
	qs := testutil.RandomQueries(st, 150, 2)
	idx := Build(st, 256)
	testutil.CheckMatchesFullScan(t, idx, st, qs)
}

func TestOctreeSmallPages(t *testing.T) {
	st := testutil.SmallTaxi(2000, 3)
	qs := testutil.RandomQueries(st, 80, 4)
	idx := Build(st, 32)
	testutil.CheckMatchesFullScan(t, idx, st, qs)
}

func TestOctreeLeavesCoverAllPoints(t *testing.T) {
	st := testutil.SmallTaxi(4000, 5)
	idx := Build(st, 128)
	total := 0
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.leaf {
			total += nd.end - nd.start
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(idx.root)
	if total != 4000 {
		t.Errorf("leaves cover %d points, want 4000", total)
	}
}

func TestOctreeUnfiltered(t *testing.T) {
	st := testutil.SmallTaxi(1000, 6)
	idx := Build(st, 64)
	if res := idx.Execute(query.NewCount()); res.Count != 1000 {
		t.Errorf("count = %d, want 1000", res.Count)
	}
}

func TestOctreeConstantColumn(t *testing.T) {
	st := testutil.SmallTaxi(2000, 7)
	for j := 0; j < st.NumDims(); j++ {
		col := st.Column(j)
		for i := range col {
			col[i] = 42 // fully degenerate: a single point value
		}
	}
	idx := Build(st, 100)
	res := idx.Execute(query.NewCount(query.Filter{Dim: 0, Lo: 42, Hi: 42}))
	if res.Count != 2000 {
		t.Errorf("count = %d, want 2000", res.Count)
	}
}

func TestOctreeMaxDepthBounds(t *testing.T) {
	// Two stacks of duplicates at opposite corners of a 2^40-wide box: with
	// one-point pages the build would halve the box 40 times around each
	// stack, so only maxDepth stops it.
	const n = 100
	col := make([]int64, 2*n)
	for i := n; i < 2*n; i++ {
		col[i] = 1 << 40
	}
	st, err := colstore.FromColumns([][]int64{col, append([]int64(nil), col...)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := Build(st, 1)
	var depth func(nd *node) int
	depth = func(nd *node) int {
		if nd.leaf {
			return 1
		}
		max := 0
		for _, c := range nd.children {
			if d := depth(c); d > max {
				max = d
			}
		}
		return max + 1
	}
	if d := depth(idx.root); d != maxDepth+1 {
		t.Errorf("depth = %d, want %d (maxDepth %d plus the leaf level)", d, maxDepth+1, maxDepth)
	}
	testutil.CheckMatchesFullScan(t, idx, st, testutil.RandomQueries(st, 20, 3))
}
