package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/workload"
)

// linearSelectivity is the reference Sample is held to: the fraction of
// the strided sample's rows (every row when n <= want, else want rows
// n/want apart) whose value matches f, counted in one pass (1 on an empty
// sample).
func linearSelectivity(s *colstore.Store, want int, f query.Filter) float64 {
	n := s.NumRows()
	stride := 1
	if n > want {
		stride = n / want
	} else {
		want = n
	}
	if want == 0 {
		return 1
	}
	col := s.Column(f.Dim)
	match := 0
	for i := 0; i < want; i++ {
		if v := col[i*stride]; v >= f.Lo && v <= f.Hi {
			match++
		}
	}
	return float64(match) / float64(want)
}

// differentialStore is an n-row table whose columns stress the sample's
// binary searches: wide uniform values, a handful of values repeated
// thousands of times, one constant, and the int64 extremes.
func differentialStore(t *testing.T, rng *rand.Rand, n int) *colstore.Store {
	t.Helper()
	cols := make([][]int64, 4)
	for d := range cols {
		cols[d] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		cols[0][i] = rng.Int63n(1_000_000) - 500_000
		cols[1][i] = rng.Int63n(4)
		cols[2][i] = 7
		switch rng.Intn(3) {
		case 0:
			cols[3][i] = math.MinInt64
		case 1:
			cols[3][i] = math.MaxInt64
		default:
			cols[3][i] = rng.Int63() - rng.Int63()
		}
	}
	s, err := colstore.FromColumns(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomBound draws a filter bound for a column: a sampled value (an
// exact hit on a duplicate run), one beside it, an unbounded side, or a
// value outside the column's domain.
func randomBound(rng *rand.Rand, col []int64, unbounded int64) int64 {
	switch rng.Intn(6) {
	case 0:
		return unbounded
	case 1:
		return rng.Int63() - rng.Int63()
	case 2:
		v := col[rng.Intn(len(col))]
		if v < math.MaxInt64 {
			v++
		}
		return v
	case 3:
		v := col[rng.Intn(len(col))]
		if v > math.MinInt64 {
			v--
		}
		return v
	default:
		return col[rng.Intn(len(col))]
	}
}

// TestSampleMatchesLinearCount holds Sample.Selectivity to the linear
// count over the same rows, bit for bit, on random filters — inverted
// (Lo > Hi), one- and two-sided, out of the domain, on duplicate-heavy
// and extreme-valued columns — over tables larger and smaller than the
// sample.
func TestSampleMatchesLinearCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ rows, want int }{
		{1, 2000}, {7, 2000}, {1999, 2000}, {2000, 2000}, {2001, 2000}, {50_000, 2000}, {5000, 64}, {300, 1},
	} {
		s := differentialStore(t, rng, c.rows)
		sample := NewSample(s, c.want)
		for k := 0; k < 2000; k++ {
			dim := rng.Intn(s.NumDims())
			col := s.Column(dim)
			f := query.Filter{Dim: dim, Lo: randomBound(rng, col, query.NoLo), Hi: randomBound(rng, col, query.NoHi)}
			if k%10 == 0 {
				f.Lo, f.Hi = f.Hi, f.Lo // often Lo > Hi
			}
			if got, want := sample.Selectivity(f), linearSelectivity(s, c.want, f); got != want {
				t.Fatalf("%d rows, sample %d, %+v: Selectivity = %v, linear count = %v", c.rows, c.want, f, got, want)
			}
		}
	}
}

// selectivitySink keeps the benchmarks' estimates alive.
var selectivitySink float64

// sampleBenchFilters are the filters of a Taxi workload over 100k rows.
func sampleBenchFilters() (*colstore.Store, []query.Filter) {
	ds := datasets.Taxi(100_000, 1)
	var fs []query.Filter
	for _, q := range workload.Generate(ds.Store, workload.TaxiTypes(), 20, 1) {
		fs = append(fs, q.Filters...)
	}
	return ds.Store, fs
}

// BenchmarkSampleSelectivity estimates one filter's selectivity on a
// 2000-row sorted sample: two binary searches. CI holds
// BenchmarkSampleSelectivityLinear to at least 5x its ns/op, so the
// estimator the shift detector runs on every served query stays
// logarithmic.
func BenchmarkSampleSelectivity(b *testing.B) {
	st, fs := sampleBenchFilters()
	sample := NewSample(st, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectivitySink += sample.Selectivity(fs[i%len(fs)])
	}
}

// BenchmarkSampleSelectivityLinear estimates the same filters by a pass
// over the same 2000 sampled rows.
func BenchmarkSampleSelectivityLinear(b *testing.B) {
	st, fs := sampleBenchFilters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectivitySink += linearSelectivity(st, 2000, fs[i%len(fs)])
	}
}
