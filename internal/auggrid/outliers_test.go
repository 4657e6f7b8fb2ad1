package auggrid

import (
	"math/rand"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
)

// outlierStore: d1 tightly follows d0 except for ~1% wild outliers that
// ruin a plain least-squares error band.
func outlierStore(n int, seed int64) *colstore.Store {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, 3)
	for j := range cols {
		cols[j] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		x := rng.Int63n(100000)
		y := 2*x + rng.Int63n(400)
		if rng.Float64() < 0.01 {
			y = rng.Int63n(1_000_000) // outlier
		}
		cols[0][i] = x
		cols[1][i] = y
		cols[2][i] = rng.Int63n(100000)
	}
	st, err := colstore.FromColumns(cols, nil)
	if err != nil {
		panic(err)
	}
	return st
}

func TestRobustFitTightensBand(t *testing.T) {
	st := outlierStore(20000, 1)
	plain, _ := robustFit(st.Column(0), st.Column(1), 0)
	robust, out := robustFit(st.Column(0), st.Column(1), 0.02)
	if robust.ErrSpan() >= plain.ErrSpan()/5 {
		t.Errorf("robust band %.0f not much tighter than plain %.0f",
			robust.ErrSpan(), plain.ErrSpan())
	}
	marked := 0
	for _, o := range out {
		if o {
			marked++
		}
	}
	if marked == 0 || marked > 20000*3/100 {
		t.Errorf("marked %d outliers, want ≈1-2%%", marked)
	}
}

func TestRobustFitDisabledMarksNothing(t *testing.T) {
	st := outlierStore(5000, 2)
	_, out := robustFit(st.Column(0), st.Column(1), 0)
	if out != nil {
		t.Error("disabled robust fit should mark nothing")
	}
}

func TestOutlierBufferGridMatchesFullScan(t *testing.T) {
	st := outlierStore(10000, 3)
	sk := IndependentSkeleton(3)
	sk[1] = DimStrategy{Kind: Mapped, Other: 0}
	l := NewLayout(sk, []int{16, 1, 4}, -1)
	l.OutlierFrac = 0.02
	g, store, err := buildAndBind(st, l)
	if err != nil {
		t.Fatal(err)
	}
	if g.nOutliers == 0 {
		t.Fatal("expected a populated outlier buffer")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		var fs []query.Filter
		for j := 0; j < 3; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			lo, hi := store.MinMax(j)
			a := lo + rng.Int63n(hi-lo+1)
			fs = append(fs, query.Filter{Dim: j, Lo: a, Hi: a + (hi-lo)/20})
		}
		if len(fs) == 0 {
			fs = append(fs, query.Filter{Dim: 1, Lo: 0, Hi: 200000})
		}
		q := query.NewCount(fs...)
		var want colstore.ScanResult
		store.ScanRange(q, 0, store.NumRows(), false, &want)
		got, _ := execute(g, q)
		if got.Count != want.Count {
			t.Fatalf("query %s: got %d, want %d", q, got.Count, want.Count)
		}
	}
}

func TestOutlierBufferReducesScans(t *testing.T) {
	st := outlierStore(20000, 5)
	sk := IndependentSkeleton(3)
	sk[1] = DimStrategy{Kind: Mapped, Other: 0}

	plain := NewLayout(sk, []int{32, 1, 4}, -1)
	gPlain, storePlain, err := buildAndBind(st, plain)
	if err != nil {
		t.Fatal(err)
	}
	robust := plain.Clone()
	robust.OutlierFrac = 0.02
	gRobust, storeRobust, err := buildAndBind(st, robust)
	if err != nil {
		t.Fatal(err)
	}

	// Queries over the mapped dimension d1: the plain mapping's error band
	// spans nearly the whole domain, so the rewritten filters prune
	// nothing; the robust band prunes hard.
	rng := rand.New(rand.NewSource(6))
	var plainScanned, robustScanned uint64
	for i := 0; i < 50; i++ {
		a := rng.Int63n(190000)
		q := query.NewCount(query.Filter{Dim: 1, Lo: a, Hi: a + 5000})
		rp, _ := execute(gPlain, q)
		rr, _ := execute(gRobust, q)
		if rp.Count != rr.Count {
			t.Fatalf("plain and robust disagree on %s: %d vs %d", q, rp.Count, rr.Count)
		}
		plainScanned += rp.PointsScanned
		robustScanned += rr.PointsScanned
	}
	_ = storePlain
	_ = storeRobust
	if robustScanned*2 >= plainScanned {
		t.Errorf("outlier buffer should cut scans at least 2x: robust=%d plain=%d",
			robustScanned, plainScanned)
	}
}

func TestOutlierFracSurvivesCloneAndBuild(t *testing.T) {
	l := NewLayout(IndependentSkeleton(3), []int{2, 2, 2}, -1)
	l.OutlierFrac = 0.05
	if c := l.Clone(); c.OutlierFrac != 0.05 {
		t.Error("Clone dropped OutlierFrac")
	}
}
