package cdfmodel

import (
	"math"
	"slices"
	"sort"
)

// The paper notes the CDF modeling technique is orthogonal (§2.2): "Flood
// uses an RMI, but one could also use a histogram or linear regression."
// This file provides those two alternatives plus a selector that picks the
// smallest model meeting an accuracy target, so the trade-off is
// measurable rather than assumed.

// LinearCDF models the CDF as a straight line between the observed min and
// max — two floats, the smallest possible model. Exact for uniform data,
// poor for skewed data.
type LinearCDF struct {
	min, max int64
	n        int
}

// NewLinear fits a linear CDF.
func NewLinear(values []int64) *LinearCDF {
	m := &LinearCDF{}
	m.n = len(values)
	if m.n == 0 {
		return m
	}
	m.min, m.max = values[0], values[0]
	for _, v := range values {
		if v < m.min {
			m.min = v
		}
		if v > m.max {
			m.max = v
		}
	}
	return m
}

// At implements Model.
func (m *LinearCDF) At(x int64) float64 {
	if m.n == 0 || x < m.min {
		return 0
	}
	if x >= m.max {
		return 1
	}
	return float64(x-m.min) / float64(m.max-m.min)
}

// Quantile implements Model.
func (m *LinearCDF) Quantile(q float64) int64 {
	if m.n == 0 {
		return 0
	}
	if q <= 0 {
		return m.min
	}
	if q >= 1 {
		return Above(m.max)
	}
	return m.min + int64(q*float64(m.max-m.min))
}

// SizeBytes implements Model.
func (m *LinearCDF) SizeBytes() uint64 { return 16 }

// HistogramCDF models the CDF as an equi-width histogram with cumulative
// counts — robust for moderately skewed data at a fixed budget.
type HistogramCDF struct {
	min, width int64
	cum        []float64 // cum[i] = fraction of values below bucket i
	n          int
}

// NewHistogram fits an equi-width cumulative histogram with buckets bins.
func NewHistogram(values []int64, buckets int) *HistogramCDF {
	m := &HistogramCDF{n: len(values)}
	if m.n == 0 || buckets < 1 {
		m.cum = []float64{0}
		m.width = 1
		return m
	}
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	m.min = min
	span := max - min + 1
	m.width = (span + int64(buckets) - 1) / int64(buckets)
	if m.width < 1 {
		m.width = 1
	}
	counts := make([]float64, buckets+1)
	for _, v := range values {
		b := int((v - min) / m.width)
		if b >= buckets {
			b = buckets - 1
		}
		counts[b+1]++
	}
	for i := 1; i <= buckets; i++ {
		counts[i] = counts[i-1] + counts[i]/float64(m.n)
	}
	m.cum = counts
	return m
}

// At implements Model with intra-bucket linear interpolation.
func (m *HistogramCDF) At(x int64) float64 {
	if m.n == 0 {
		return 0
	}
	if x < m.min {
		return 0
	}
	b := int((x - m.min) / m.width)
	if b >= len(m.cum)-1 {
		return 1
	}
	frac := float64((x-m.min)%m.width) / float64(m.width)
	return m.cum[b] + (m.cum[b+1]-m.cum[b])*frac
}

// Quantile implements Model by binary search over buckets.
func (m *HistogramCDF) Quantile(q float64) int64 {
	if m.n == 0 {
		return 0
	}
	if q <= 0 {
		return m.min
	}
	if q >= 1 {
		top := m.min + m.width*int64(len(m.cum)-1)
		if top < m.min {
			top = math.MaxInt64 // the top edge lies past the int64 domain
		}
		return Above(top)
	}
	b := sort.Search(len(m.cum), func(i int) bool { return m.cum[i] >= q }) - 1
	if b < 0 {
		b = 0
	}
	if b >= len(m.cum)-1 {
		b = len(m.cum) - 2
	}
	span := m.cum[b+1] - m.cum[b]
	frac := 0.0
	if span > 0 {
		frac = (q - m.cum[b]) / span
	}
	return m.min + m.width*int64(b) + int64(frac*float64(m.width))
}

// SizeBytes implements Model.
func (m *HistogramCDF) SizeBytes() uint64 { return 16 + uint64(len(m.cum))*8 }

// MaxAbsError measures a model's worst CDF deviation on values.
func MaxAbsError(m Model, values []int64) float64 {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	worst := 0.0
	for i, v := range sorted {
		emp := float64(i+1) / float64(len(sorted))
		if e := math.Abs(m.At(v) - emp); e > worst {
			worst = e
		}
	}
	return worst
}

// Select fits, in increasing size order, a linear CDF, a histogram, and an
// RMI, returning the first whose max CDF error on a sample is within tol —
// an instance-optimized model choice in the learned-index spirit.
func Select(values []int64, tol float64) Model {
	sample := values
	if len(sample) > 4096 {
		stride := len(values) / 4096
		sample = make([]int64, 0, 4096)
		for i := 0; i < len(values); i += stride {
			sample = append(sample, values[i])
		}
	}
	if m := NewLinear(values); MaxAbsError(m, sample) <= tol {
		return m
	}
	if m := NewHistogram(values, 64); MaxAbsError(m, sample) <= tol {
		return m
	}
	return NewRMI(values, 256)
}
