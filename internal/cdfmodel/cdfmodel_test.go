package cdfmodel

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func uniformValues(n int, rng *rand.Rand) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1_000_000)
	}
	return out
}

func skewedValues(n int, rng *rand.Rand) []int64 {
	out := make([]int64, n)
	for i := range out {
		v := rng.NormFloat64()*1000 + 5000
		if v < 0 {
			v = 0
		}
		out[i] = int64(v * v) // heavy right tail
	}
	return out
}

func TestBoundariesEquiDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := skewedValues(20000, rng)
	m := NewSample(vals, 0)
	p := 16
	b := Boundaries(m, p)
	if len(b) != p+1 {
		t.Fatalf("boundaries len = %d, want %d", len(b), p+1)
	}
	for i := 1; i <= p; i++ {
		if b[i] < b[i-1] {
			t.Fatalf("boundaries not monotone at %d", i)
		}
	}
	// Each partition should hold roughly n/p points.
	counts := make([]int, p)
	for _, v := range vals {
		i := sort.Search(len(b), func(i int) bool { return b[i] > v }) - 1
		if i < 0 {
			i = 0
		}
		if i >= p {
			i = p - 1
		}
		counts[i]++
	}
	want := len(vals) / p
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("partition %d count = %d, want ≈%d (equi-depth violated)", i, c, want)
		}
	}
}

func TestBoundariesOfConstantColumn(t *testing.T) {
	vals := []int64{7, 7, 7, 7}
	m := NewSample(vals, 0)
	b := Boundaries(m, 4)
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatal("constant column boundaries must be monotone")
		}
	}
}

func TestModelInterfaceQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := skewedValues(5000, rng)
	models := []*SampleCDF{NewSample(vals, 0), NewSample(vals, 512)}
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

// TestQuantileSaturatesAtMaxInt64 checks the sample model's top boundary over a
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
	for name, m := range map[string]*SampleCDF{
		"sample":    NewSample(vals, 0),
		"subsample": NewSample(vals, 100),
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
