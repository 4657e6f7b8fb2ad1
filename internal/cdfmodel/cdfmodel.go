// Package cdfmodel provides compact models of a column's cumulative
// distribution function. Flood and the Augmented Grid place a value into
// partition ⌊CDF(x)·p⌋ (§2.2); the index materializes those partitions
// once, as boundary values taken from the CDF's inverse (quantile).
//
// The paper notes the modeling technique is orthogonal (Flood uses an RMI,
// "but one could also use a histogram or linear regression"); the index
// builds every partitioning from one model, a sorted-sample CDF (exact
// equi-depth when the sample keeps every value).
package cdfmodel

import (
	"math"
	"slices"
)

// Boundaries materializes the p+1 partition boundary values of an
// equi-CDF partitioning: boundary i is Quantile(i/p). Boundaries are
// non-decreasing.
func Boundaries(m *SampleCDF, p int) []int64 {
	out := make([]int64, p+1)
	for i := 0; i <= p; i++ {
		out[i] = m.Quantile(float64(i) / float64(p))
		if i > 0 && out[i] < out[i-1] {
			out[i] = out[i-1]
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// SampleCDF: a sorted sample.

// SampleCDF models the CDF by a sorted sample of the column's order
// statistics. With sampleSize == n it is exact.
type SampleCDF struct {
	sample []int64 // sorted
}

// NewSample builds a SampleCDF from values, keeping at most sampleSize
// evenly-spaced order statistics (all values if sampleSize <= 0 or >= n).
// It sorts a copy of values; a caller that already holds them in ascending
// order uses NewSortedSample and skips the sort.
func NewSample(values []int64, sampleSize int) *SampleCDF {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	return NewSortedSample(sorted, sampleSize)
}

// NewSortedSample is NewSample over values already in ascending order. The
// model keeps sorted itself when it uses every value, so the caller must not
// modify sorted while the model is in use.
func NewSortedSample(sorted []int64, sampleSize int) *SampleCDF {
	if sampleSize <= 0 || sampleSize >= len(sorted) || len(sorted) == 0 {
		return &SampleCDF{sample: sorted}
	}
	out := make([]int64, 0, sampleSize+1)
	for i := 0; i < sampleSize; i++ {
		idx := i * (len(sorted) - 1) / (sampleSize - 1)
		out = append(out, sorted[idx])
	}
	return &SampleCDF{sample: out}
}

// Above returns v+1, the exclusive upper boundary of a domain whose maximum
// is v, saturating at math.MaxInt64: a column holding MaxInt64 has no value
// above it, and a wrapped boundary would put its maximum in no partition.
func Above(v int64) int64 {
	if v == math.MaxInt64 {
		return v
	}
	return v + 1
}

// Quantile returns the sample order statistic at q; at q >= 1 it is one past
// the maximum (saturating, see Above).
func (s *SampleCDF) Quantile(q float64) int64 {
	n := len(s.sample)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s.sample[0]
	}
	if q >= 1 {
		return Above(s.sample[n-1])
	}
	idx := int(q * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return s.sample[idx]
}
