package query

import (
	"testing"
)

func TestFilterMatches(t *testing.T) {
	f := Filter{Dim: 0, Lo: 10, Hi: 20}
	for _, tc := range []struct {
		v    int64
		want bool
	}{{9, false}, {10, true}, {15, true}, {20, true}, {21, false}} {
		if got := f.Matches(tc.v); got != tc.want {
			t.Errorf("Matches(%d) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestFilterEquality(t *testing.T) {
	if !(Filter{Dim: 0, Lo: 5, Hi: 5}).IsEquality() {
		t.Error("Lo==Hi should be equality")
	}
	if (Filter{Dim: 0, Lo: 5, Hi: 6}).IsEquality() {
		t.Error("Lo<Hi should not be equality")
	}
}

func TestNormalizeMergesDuplicateDims(t *testing.T) {
	q := NewCount(
		Filter{Dim: 1, Lo: 0, Hi: 100},
		Filter{Dim: 0, Lo: 5, Hi: 50},
		Filter{Dim: 1, Lo: 10, Hi: 200},
	)
	if len(q.Filters) != 2 {
		t.Fatalf("got %d filters, want 2", len(q.Filters))
	}
	if q.Filters[0].Dim != 0 || q.Filters[1].Dim != 1 {
		t.Errorf("filters not sorted by dim: %+v", q.Filters)
	}
	if q.Filters[1].Lo != 10 || q.Filters[1].Hi != 100 {
		t.Errorf("duplicate filters not intersected: %+v", q.Filters[1])
	}
}

func TestFilterLookup(t *testing.T) {
	q := NewCount(Filter{Dim: 2, Lo: 1, Hi: 2})
	if _, ok := q.Filter(0); ok {
		t.Error("found filter for unfiltered dim")
	}
	f, ok := q.Filter(2)
	if !ok || f.Lo != 1 || f.Hi != 2 {
		t.Errorf("Filter(2) = %+v, %v", f, ok)
	}
}

func TestDimSetKey(t *testing.T) {
	a := NewCount(Filter{Dim: 0, Lo: 1, Hi: 2}, Filter{Dim: 3, Lo: 1, Hi: 2})
	b := NewCount(Filter{Dim: 3, Lo: 9, Hi: 9}, Filter{Dim: 0, Lo: 0, Hi: 0})
	c := NewCount(Filter{Dim: 0, Lo: 1, Hi: 2})
	if a.DimSetKey() != b.DimSetKey() {
		t.Errorf("same dim sets, different keys: %q vs %q", a.DimSetKey(), b.DimSetKey())
	}
	if a.DimSetKey() == c.DimSetKey() {
		t.Errorf("different dim sets, same key: %q", a.DimSetKey())
	}
}

func TestMatchesRow(t *testing.T) {
	q := NewCount(Filter{Dim: 0, Lo: 0, Hi: 9}, Filter{Dim: 2, Lo: 100, Hi: 100})
	if !q.MatchesRow([]int64{5, 77, 100}) {
		t.Error("row should match")
	}
	if q.MatchesRow([]int64{5, 77, 101}) {
		t.Error("row should not match (equality fails)")
	}
	if q.MatchesRow([]int64{10, 77, 100}) {
		t.Error("row should not match (range fails)")
	}
}

func TestBoxTests(t *testing.T) {
	q := NewCount(Filter{Dim: 0, Lo: 10, Hi: 20}, Filter{Dim: 2, Lo: 5, Hi: 5})
	for _, c := range []struct {
		lo, hi               []int64
		contains, intersects bool
	}{
		{[]int64{12, -99, 5}, []int64{18, 99, 5}, true, true}, // inside both filters; dim 1 is free
		{[]int64{10, 0, 5}, []int64{20, 0, 5}, true, true},    // bounds are inclusive
		{[]int64{12, 0, 4}, []int64{18, 0, 6}, false, true},   // straddles the equality
		{[]int64{0, 0, 5}, []int64{10, 0, 5}, false, true},    // touches dim 0's lower bound
		{[]int64{21, 0, 5}, []int64{30, 0, 5}, false, false},  // past dim 0's upper bound
		{[]int64{12, 0, 6}, []int64{18, 0, 9}, false, false},  // misses the equality
	} {
		if got := q.ContainsBox(c.lo, c.hi); got != c.contains {
			t.Errorf("ContainsBox(%v, %v) = %v, want %v", c.lo, c.hi, got, c.contains)
		}
		if got := q.IntersectsBox(c.lo, c.hi); got != c.intersects {
			t.Errorf("IntersectsBox(%v, %v) = %v, want %v", c.lo, c.hi, got, c.intersects)
		}
	}
	if all := NewCount(); !all.ContainsBox(nil, nil) || !all.IntersectsBox(nil, nil) {
		t.Error("an unfiltered query contains and intersects every box")
	}
}

func TestString(t *testing.T) {
	q := NewSum(1, Filter{Dim: 0, Lo: 3, Hi: 3}, Filter{Dim: 2, Lo: 1, Hi: 5})
	got := q.String()
	want := "SUM(d1) WHERE d0=3 AND 1<=d2<=5"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
