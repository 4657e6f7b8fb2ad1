package cdfmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLinearCDFExactOnUniform(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i) * 100
	}
	m := NewLinear(vals)
	if err := MaxAbsError(m, vals); err > 0.01 {
		t.Errorf("linear CDF error on uniform grid = %f", err)
	}
}

func TestLinearCDFPoorOnSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := skewedValues(10000, rng)
	lin := NewLinear(vals)
	rmi := NewRMI(vals, 128)
	if MaxAbsError(lin, vals) < MaxAbsError(rmi, vals) {
		t.Error("linear CDF should lose to RMI on skewed data")
	}
}

func TestHistogramCDFMonotoneAndAccurate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := skewedValues(20000, rng)
	m := NewHistogram(vals, 128)
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	prev := -1.0
	step := (hi - lo) / 500
	if step < 1 {
		step = 1
	}
	for x := lo; x <= hi; x += step {
		c := m.At(x)
		if c < prev-1e-12 {
			t.Fatalf("histogram CDF not monotone at %d", x)
		}
		prev = c
	}
	if err := MaxAbsError(m, vals); err > 0.08 {
		t.Errorf("histogram CDF error = %f, want <= 0.08", err)
	}
}

func TestHistogramQuantileInverts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := uniformValues(10000, rng)
	m := NewHistogram(vals, 64)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		v := m.Quantile(q)
		got := m.At(v)
		if got < q-0.06 || got > q+0.06 {
			t.Errorf("At(Quantile(%f)) = %f", q, got)
		}
	}
}

func TestModelsHandleEmptyAndConstant(t *testing.T) {
	for _, m := range []Model{
		NewLinear(nil), NewHistogram(nil, 8),
		NewLinear([]int64{7, 7, 7}), NewHistogram([]int64{7, 7, 7}, 8),
	} {
		if c := m.At(7); c < 0 || c > 1 {
			t.Errorf("At out of range: %f", c)
		}
		_ = m.Quantile(0.5)
		if m.SizeBytes() == 0 {
			t.Error("zero model size")
		}
	}
}

func TestSelectPicksSmallSufficientModel(t *testing.T) {
	// Uniform data: linear suffices at loose tolerance.
	uni := make([]int64, 20000)
	for i := range uni {
		uni[i] = int64(i)
	}
	if _, ok := Select(uni, 0.05).(*LinearCDF); !ok {
		t.Error("uniform data should select the linear model")
	}
	// Heavily skewed data at tight tolerance: needs the RMI.
	rng := rand.New(rand.NewSource(4))
	sk := skewedValues(20000, rng)
	m := Select(sk, 0.01)
	if _, ok := m.(*LinearCDF); ok {
		t.Error("skewed data at 1% tolerance should not select linear")
	}
	if err := MaxAbsError(m, sk); err > 0.05 {
		t.Errorf("selected model error = %f", err)
	}
}

func TestModelInterfaceQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := skewedValues(5000, rng)
	models := []Model{NewLinear(vals), NewHistogram(vals, 64), NewRMI(vals, 64), NewSample(vals, 512)}
	prop := func(a, b uint8) bool {
		qa := float64(a) / 255
		qb := float64(b) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		for _, m := range models {
			if m.Quantile(qa) > m.Quantile(qb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuantileSaturatesAtMaxInt64 checks every model's top boundary over a
// column holding math.MaxInt64: one past the maximum does not exist, so
// Quantile(1) is MaxInt64 itself, and the boundaries stay non-decreasing
// up to it instead of wrapping to MinInt64.
func TestQuantileSaturatesAtMaxInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = math.MaxInt64 - rng.Int63n(1000)
	}
	vals[17] = math.MaxInt64
	for name, m := range map[string]Model{
		"sample":    NewSample(vals, 0),
		"subsample": NewSample(vals, 100),
		"linear":    NewLinear(vals),
		"histogram": NewHistogram(vals, 64),
		"rmi":       NewRMI(vals, 16),
	} {
		if q := m.Quantile(1); q != math.MaxInt64 {
			t.Errorf("%s: Quantile(1) = %d, want MaxInt64", name, q)
		}
		b := Boundaries(m, 8)
		if b[8] != math.MaxInt64 || !slices.IsSorted(b) {
			t.Errorf("%s: boundaries %v, want non-decreasing up to MaxInt64", name, b)
		}
	}
	if Above(41) != 42 || Above(math.MaxInt64) != math.MaxInt64 {
		t.Error("Above must add one, saturating at MaxInt64")
	}
}

// TestNewSortedSampleMatchesNewSample: the constructor over presorted
// values is NewSample without the sort.
func TestNewSortedSampleMatchesNewSample(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := skewedValues(5000, rng)
	sorted := slices.Sorted(slices.Values(vals))
	for _, size := range []int{0, 1024, 5000, 9000} {
		a, b := NewSample(vals, size), NewSortedSample(sorted, size)
		if !slices.Equal(a.sample, b.sample) {
			t.Errorf("sample size %d: NewSortedSample kept different order statistics", size)
		}
	}
}
