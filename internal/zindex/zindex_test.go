package zindex

import (
	"testing"

	"repro/internal/query"
	"repro/internal/testutil"
)

func TestZOrderMatchesFullScan(t *testing.T) {
	st := testutil.SmallTaxi(8000, 1)
	qs := testutil.RandomQueries(st, 150, 2)
	idx := Build(st, 256)
	testutil.CheckMatchesFullScan(t, idx, st, qs)
}

func TestZOrderSmallPages(t *testing.T) {
	st := testutil.SmallTaxi(2000, 3)
	qs := testutil.RandomQueries(st, 80, 4)
	idx := Build(st, 32)
	testutil.CheckMatchesFullScan(t, idx, st, qs)
}

func TestZOrderPagesSorted(t *testing.T) {
	st := testutil.SmallTaxi(4000, 5)
	idx := Build(st, 128)
	for i := 1; i < len(idx.pages); i++ {
		if idx.pages[i].zmin < idx.pages[i-1].zmax {
			t.Fatalf("page %d z-range overlaps predecessor", i)
		}
	}
	total := 0
	for _, pg := range idx.pages {
		total += pg.end - pg.start
	}
	if total != 4000 {
		t.Errorf("pages cover %d rows, want 4000", total)
	}
}

func TestZOrderMetadataSound(t *testing.T) {
	st := testutil.SmallTaxi(4000, 6)
	idx := Build(st, 128)
	for pi, pg := range idx.pages {
		for j := 0; j < idx.store.NumDims(); j++ {
			col := idx.store.Column(j)
			for i := pg.start; i < pg.end; i++ {
				if col[i] < pg.lo[j] || col[i] > pg.hi[j] {
					t.Fatalf("page %d metadata violated at row %d dim %d", pi, i, j)
				}
			}
		}
	}
}

func TestZOrderUnfiltered(t *testing.T) {
	st := testutil.SmallTaxi(1000, 7)
	idx := Build(st, 64)
	if res := idx.Execute(query.NewCount()); res.Count != 1000 {
		t.Errorf("count = %d, want 1000", res.Count)
	}
}

func TestZValueMonotoneInCoordinates(t *testing.T) {
	st := testutil.SmallTaxi(1000, 8)
	idx := Build(st, 64)
	d := st.NumDims()
	lo := make([]int64, d)
	hi := make([]int64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = st.MinMax(j)
	}
	// The z-value of the min corner bounds the z-value of any point below
	// — the property Execute relies on for its page range.
	zlo, zhi := idx.zvalue(lo), idx.zvalue(hi)
	row := make([]int64, d)
	for i := 0; i < st.NumRows(); i++ {
		st.Row(i, row)
		z := idx.zvalue(row)
		if z < zlo || z > zhi {
			t.Fatalf("row %d z=%d outside corner range [%d, %d]", i, z, zlo, zhi)
		}
	}
}
