package stats

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cdfmodel"
)

func TestEquiWidthBins(t *testing.T) {
	h := NewEquiWidth(0, 99, 10)
	if h.NumBins() != 10 {
		t.Fatalf("bins = %d, want 10", h.NumBins())
	}
	if h.Bin(0) != 0 || h.Bin(99) != 9 || h.Bin(50) != 5 {
		t.Errorf("bin mapping wrong: %d %d %d", h.Bin(0), h.Bin(99), h.Bin(50))
	}
}

func TestEquiWidthSmallDomain(t *testing.T) {
	h := NewEquiWidth(5, 7, 128)
	if h.NumBins() != 3 {
		t.Errorf("bins = %d, want 3 (one per value)", h.NumBins())
	}
}

// TestHistogramTopBoundSaturates builds histograms over columns that
// reach MaxInt64: the bounds must ascend (the top one saturating instead
// of wrapping to MinInt64) and MaxInt64 must fall in the last bin.
func TestHistogramTopBoundSaturates(t *testing.T) {
	for name, h := range map[string]*Histogram{
		"equi-width, narrow":      NewEquiWidth(math.MaxInt64-99, math.MaxInt64, 10),
		"equi-width, half domain": NewEquiWidth(0, math.MaxInt64, 16),
		"equi-width, full domain": NewEquiWidth(math.MinInt64, math.MaxInt64, 16),
		"from values, uniques":    NewFromValues([]int64{1, 7, math.MaxInt64}, 128),
		"from values, wide":       NewFromValues([]int64{math.MinInt64, -3, 0, 5, math.MaxInt64}, 4),
	} {
		for i := 1; i < len(h.Bounds); i++ {
			if h.Bounds[i] < h.Bounds[i-1] {
				t.Errorf("%s: bounds descend at %d: %v", name, i, h.Bounds)
				break
			}
		}
		if got, want := h.Bin(math.MaxInt64), h.NumBins()-1; got != want {
			t.Errorf("%s: Bin(MaxInt64) = %d, want the last bin %d (bounds %v)", name, got, want, h.Bounds)
		}
	}
}

func TestNewFromValuesUniques(t *testing.T) {
	h := NewFromValues([]int64{3, 1, 4, 1, 5}, 128)
	if h.NumBins() != 4 {
		t.Fatalf("bins = %d, want 4 unique-value bins", h.NumBins())
	}
	if h.Bin(1) == h.Bin(3) {
		t.Error("distinct values share a bin")
	}
}

// newFromValuesSorted is NewFromValues as it was built before its
// distinct-value pass: clone and sort the whole column, then walk it. It
// is the reference NewFromValues must match.
func newFromValuesSorted(values []int64, maxBins int) *Histogram {
	if len(values) == 0 {
		return NewEquiWidth(0, 0, 1)
	}
	vs := slices.Clone(values)
	slices.Sort(vs)
	uniq := slices.Compact(vs)
	if len(uniq) <= maxBins {
		b := append(slices.Clone(uniq), cdfmodel.Above(uniq[len(uniq)-1]))
		return &Histogram{Bounds: b, Mass: make([]float64, len(uniq))}
	}
	return NewEquiWidth(uniq[0], uniq[len(uniq)-1], maxBins)
}

// TestNewFromValuesMatchesSortedReference draws columns with exactly
// maxBins-1, maxBins and maxBins+1 distinct values (and many more),
// repeated and shuffled, some holding MinInt64 and MaxInt64, and checks
// NewFromValues builds the reference's histogram.
func TestNewFromValuesMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		maxBins := 1 + rng.Intn(40)
		distinct := maxBins + rng.Intn(3) - 1
		if trial%5 == 0 {
			distinct = 1 + rng.Intn(4*maxBins)
		}
		set := map[int64]bool{}
		switch trial % 4 {
		case 1:
			set[math.MinInt64] = true
		case 2:
			set[math.MaxInt64] = true
		case 3:
			set[math.MinInt64], set[math.MaxInt64] = true, true
		}
		span := int64(1) << (8 + rng.Intn(55)) // >= 256: room for every draw
		for len(set) < distinct {
			set[rng.Int63n(span)-span/2] = true
		}
		var values []int64
		for v := range set {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				values = append(values, v)
			}
		}
		rng.Shuffle(len(values), func(i, j int) { values[i], values[j] = values[j], values[i] })
		if got, want := NewFromValues(values, maxBins), newFromValuesSorted(values, maxBins); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d distinct, maxBins %d): got bounds %v, want %v", trial, len(set), maxBins, got.Bounds, want.Bounds)
		}
	}
	if got, want := NewFromValues(nil, 8), newFromValuesSorted(nil, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty column: got %v, want %v", got.Bounds, want.Bounds)
	}
}

func TestNewFromValuesFallsBack(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	h := NewFromValues(vals, 128)
	if h.NumBins() != 128 {
		t.Errorf("bins = %d, want 128", h.NumBins())
	}
}

func TestAddRangeSpreadsMass(t *testing.T) {
	h := NewEquiWidth(0, 99, 10)
	h.AddRange(0, 49, 1.0) // bins 0..4
	for i := 0; i < 5; i++ {
		if math.Abs(h.Mass[i]-0.2) > 1e-12 {
			t.Errorf("bin %d mass = %f, want 0.2", i, h.Mass[i])
		}
	}
	if got := h.Total(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("total = %f, want 1", got)
	}
}

func TestSkewUniformIsZero(t *testing.T) {
	h := NewEquiWidth(0, 127, 128)
	for i := range h.Mass {
		h.Mass[i] = 1
	}
	if s := h.SkewOver(0, 128); s != 0 {
		t.Errorf("uniform skew = %f, want 0", s)
	}
}

func TestSkewSingleBinIsZero(t *testing.T) {
	h := NewEquiWidth(0, 127, 128)
	h.Mass[5] = 100
	if s := h.SkewOver(5, 6); s != 0 {
		t.Errorf("single-bin skew = %f, want 0", s)
	}
}

func TestSkewConcentratedIsHigh(t *testing.T) {
	h := NewEquiWidth(0, 127, 128)
	h.Mass[0] = 100
	concentrated := h.SkewOver(0, 128)
	h2 := NewEquiWidth(0, 127, 128)
	for i := range h2.Mass {
		h2.Mass[i] = 100.0 / 128
	}
	if concentrated <= h2.SkewOver(0, 128) {
		t.Errorf("concentrated skew %f should exceed uniform skew", concentrated)
	}
	if concentrated <= 0 {
		t.Error("concentrated skew should be positive")
	}
}

func TestSkewSplitReducesSkew(t *testing.T) {
	// The paper's Fig 3 scenario: one query type concentrated in the last
	// quarter. Splitting there should leave both halves with lower skew.
	h := NewEquiWidth(0, 127, 128)
	for i := 96; i < 128; i++ {
		h.Mass[i] = 1
	}
	whole := h.SkewOver(0, 128)
	split := h.SkewOver(0, 96) + h.SkewOver(96, 128)
	if split >= whole {
		t.Errorf("split skew %f should be below whole skew %f", split, whole)
	}
}

func TestLinRegExactLine(t *testing.T) {
	x := []int64{1, 2, 3, 4, 5}
	y := []int64{3, 5, 7, 9, 11} // y = 2x + 1
	lr := FitLinReg(x, y)
	if math.Abs(lr.Slope-2) > 1e-9 || math.Abs(lr.Intercept-1) > 1e-9 {
		t.Errorf("fit = %f x + %f, want 2x+1", lr.Slope, lr.Intercept)
	}
	if lr.ErrSpan() > 1e-9 {
		t.Errorf("exact line should have zero error span, got %f", lr.ErrSpan())
	}
}

func TestLinRegBoundsSound(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		x := make([]int64, n)
		y := make([]int64, n)
		for i := range x {
			x[i] = rng.Int63n(1000)
			y[i] = 3*x[i] + rng.Int63n(50) // noisy monotone relation
		}
		lr := FitLinReg(x, y)
		// Soundness invariant (§5.2.1): every observed y within the mapped
		// bounds of its x.
		for i := range x {
			lo, hi := lr.Bounds(float64(x[i]), float64(x[i]))
			if float64(y[i]) < lo-1e-6 || float64(y[i]) > hi+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLinRegNegativeSlopeBounds(t *testing.T) {
	x := []int64{0, 1, 2, 3}
	y := []int64{30, 20, 10, 0}
	lr := FitLinReg(x, y)
	lo, hi := lr.Bounds(0, 3)
	if lo > 0 || hi < 30 {
		t.Errorf("bounds (%f, %f) should cover [0, 30]", lo, hi)
	}
}

func TestLinRegDegenerate(t *testing.T) {
	lr := FitLinReg([]int64{5, 5, 5}, []int64{1, 2, 3})
	if math.IsNaN(lr.Slope) || math.IsNaN(lr.Intercept) {
		t.Error("degenerate fit produced NaN")
	}
	lr0 := FitLinReg(nil, nil)
	if lr0.N != 0 {
		t.Error("empty fit should have N=0")
	}
}

func TestDBSCANSeparatedClusters(t *testing.T) {
	pts := [][]float64{
		{0.0, 0.0}, {0.05, 0.0}, {0.0, 0.05},
		{1.0, 1.0}, {1.05, 1.0}, {1.0, 1.05},
	}
	labels := DBSCAN(pts, 0.2, 2)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("first cluster split: %v", labels)
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Errorf("second cluster split: %v", labels)
	}
	if labels[0] == labels[3] {
		t.Errorf("clusters merged: %v", labels)
	}
	if NumClusters(labels) != 2 {
		t.Errorf("clusters = %d, want 2", NumClusters(labels))
	}
}

func TestDBSCANNoiseBecomesSingleton(t *testing.T) {
	pts := [][]float64{{0, 0}, {0.01, 0}, {5, 5}}
	labels := DBSCAN(pts, 0.2, 2)
	if labels[2] == labels[0] {
		t.Errorf("outlier joined a cluster: %v", labels)
	}
	if NumClusters(labels) != 2 {
		t.Errorf("clusters = %d, want 2 (one real + one singleton)", NumClusters(labels))
	}
}

func TestDBSCANAllLabelled(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64()}
		}
		labels := DBSCAN(pts, 0.15, 2)
		// Every point labelled, labels contiguous from 0.
		k := NumClusters(labels)
		seen := make([]bool, k)
		for _, l := range labels {
			if l < 0 || l >= k {
				return false
			}
			seen[l] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if p := Percentile(xs, 50); p != 3 {
		t.Errorf("P50 = %f, want 3", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Errorf("P100 = %f, want 5", p)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}
