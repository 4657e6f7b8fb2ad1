package colstore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/query"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := FromRows([][]int64{
		{1, 10, 100},
		{2, 20, 200},
		{3, 30, 300},
		{4, 40, 400},
		{5, 50, 500},
	}, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFromRowsShape(t *testing.T) {
	s := testStore(t)
	if s.NumRows() != 5 || s.NumDims() != 3 {
		t.Fatalf("shape = (%d, %d), want (5, 3)", s.NumRows(), s.NumDims())
	}
	if s.Value(2, 1) != 30 {
		t.Errorf("Value(2,1) = %d, want 30", s.Value(2, 1))
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]int64{{1, 2}, {3}}, nil); err == nil {
		t.Error("ragged rows should fail")
	}
}

func TestFromColumnsMismatch(t *testing.T) {
	if _, err := FromColumns([][]int64{{1, 2}, {3}}, nil); err == nil {
		t.Error("mismatched column lengths should fail")
	}
	if _, err := FromColumns([][]int64{{1}}, []string{"a", "b"}); err == nil {
		t.Error("name count mismatch should fail")
	}
}

func TestMinMax(t *testing.T) {
	s := testStore(t)
	lo, hi := s.MinMax(1)
	if lo != 10 || hi != 50 {
		t.Errorf("MinMax(1) = (%d, %d), want (10, 50)", lo, hi)
	}
}

func TestGatherPermutation(t *testing.T) {
	s := testStore(t).Gather([]int{4, 3, 2, 1, 0}, nil)
	if s.Value(0, 0) != 5 || s.Value(4, 2) != 100 {
		t.Errorf("reorder wrong: row0=%d rowlast=%d", s.Value(0, 0), s.Value(4, 2))
	}
}

func TestCloneIndependent(t *testing.T) {
	s := testStore(t)
	c := s.Clone()
	c.Column(0)[0] = 999
	if s.Value(0, 0) == 999 {
		t.Error("clone shares storage with original")
	}
}

// TestGather checks Gather's rows and order, that it copies, and that
// gathering into a store it returned reuses that store's columns.
func TestGather(t *testing.T) {
	s := testStore(t)
	g := s.Gather([]int{4, 0, 4}, nil)
	if g.NumRows() != 3 || g.NumDims() != 3 || g.Value(0, 1) != 50 || g.Value(1, 2) != 100 || g.Value(2, 0) != 5 {
		t.Fatalf("gathered rows wrong: %v %v %v", g.Column(0), g.Column(1), g.Column(2))
	}
	g.Column(0)[0] = 999
	if s.Value(4, 0) == 999 {
		t.Error("gather shares storage with the source")
	}
	col := &g.Column(1)[0]
	h := s.Gather([]int{1, 2}, g)
	if h != g || &h.Column(1)[0] != col {
		t.Error("gathering fewer rows into a gathered store did not reuse it")
	}
	if h.NumRows() != 2 || h.Value(0, 0) != 2 || h.Value(1, 2) != 300 {
		t.Errorf("regathered rows wrong: %v %v", h.Column(0), h.Column(2))
	}
	if e := s.Gather(nil, nil); e.NumRows() != 0 || e.NumDims() != 3 {
		t.Errorf("empty gather has shape (%d, %d), want (0, 3)", e.NumRows(), e.NumDims())
	}
}

func TestScanRangeCount(t *testing.T) {
	s := testStore(t)
	q := query.NewCount(query.Filter{Dim: 0, Lo: 2, Hi: 4})
	var res ScanResult
	s.ScanRange(q, 0, s.NumRows(), false, &res)
	if res.Count != 3 {
		t.Errorf("count = %d, want 3", res.Count)
	}
	if res.PointsScanned != 5 {
		t.Errorf("scanned = %d, want 5", res.PointsScanned)
	}
}

func TestScanRangeSum(t *testing.T) {
	s := testStore(t)
	q := query.NewSum(2, query.Filter{Dim: 0, Lo: 2, Hi: 4})
	var res ScanResult
	s.ScanRange(q, 0, s.NumRows(), false, &res)
	if res.Sum != 900 {
		t.Errorf("sum = %d, want 900", res.Sum)
	}
}

func TestScanRangeExactSkipsChecks(t *testing.T) {
	s := testStore(t)
	// Deliberately wrong filter: exact=true must trust the range.
	q := query.NewCount(query.Filter{Dim: 0, Lo: 100, Hi: 200})
	var res ScanResult
	s.ScanRange(q, 1, 4, true, &res)
	if res.Count != 3 {
		t.Errorf("exact count = %d, want 3", res.Count)
	}
	if res.PointsScanned != 0 {
		t.Errorf("exact COUNT should touch no data, scanned %d", res.PointsScanned)
	}
}

func TestScanRangeExactSum(t *testing.T) {
	s := testStore(t)
	q := query.NewSum(1)
	var res ScanResult
	s.ScanRange(q, 0, 5, true, &res)
	if res.Sum != 150 || res.Count != 5 {
		t.Errorf("exact sum = (%d, %d), want (150, 5)", res.Sum, res.Count)
	}
}

func TestScanRangeClamps(t *testing.T) {
	s := testStore(t)
	var res ScanResult
	s.ScanRange(query.NewCount(), -5, 100, false, &res)
	if res.Count != 5 {
		t.Errorf("clamped scan count = %d, want 5", res.Count)
	}
}

func TestScanMultiFilter(t *testing.T) {
	s := testStore(t)
	q := query.NewCount(
		query.Filter{Dim: 0, Lo: 2, Hi: 5},
		query.Filter{Dim: 1, Lo: 0, Hi: 30},
	)
	var res ScanResult
	s.ScanRange(q, 0, 5, false, &res)
	if res.Count != 2 {
		t.Errorf("count = %d, want 2", res.Count)
	}
}

// TestGatherIsPermutationProperty verifies that gathering a permutation
// preserves the multiset of rows.
func TestGatherIsPermutationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{rng.Int63n(100), rng.Int63n(100)}
		}
		s, err := FromRows(rows, nil)
		if err != nil {
			return false
		}
		s = s.Gather(rng.Perm(n), nil)
		// Every original row must appear exactly once.
		seen := make(map[[2]int64]int)
		for _, r := range rows {
			seen[[2]int64{r[0], r[1]}]++
		}
		for i := 0; i < n; i++ {
			k := [2]int64{s.Value(i, 0), s.Value(i, 1)}
			seen[k]--
			if seen[k] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
