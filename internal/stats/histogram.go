// Package stats provides the statistical substrate the Grid Tree and
// Augmented Grid are built on: histograms, the 1-D Earth Mover's Distance
// used to define query skew (§4.2.1), simple linear regression used by
// functional mappings (§5.2.1), and DBSCAN used to cluster query types
// (§4.3.1).
package stats

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cdfmodel"
)

// Histogram is a fixed-binning histogram over an int64 domain [Lo, Hi]. Bin
// boundaries are stored explicitly so that the bin for a value is a binary
// search away, supporting both equi-width bins and one-bin-per-unique-value
// layouts (§4.3.2).
type Histogram struct {
	// Bounds has len = NumBins()+1; bin i covers [Bounds[i], Bounds[i+1]),
	// except the last bin which also includes Bounds[n].
	Bounds []int64
	Mass   []float64
}

// NewEquiWidth builds an empty histogram with n equal-width bins over
// [lo, hi]. If the domain has fewer than n distinct values the bin count is
// reduced so every bin spans at least one value. The top bound saturates
// at MaxInt64 (cdfmodel.Above), where the last bin holds MaxInt64 itself.
func NewEquiWidth(lo, hi int64, n int) *Histogram {
	if hi < lo {
		hi = lo
	}
	width := uint64(hi-lo) + 1 // 0 stands for 2^64: the whole int64 domain
	if width != 0 && uint64(n) > width {
		n = int(width)
	}
	if n < 1 {
		n = 1
	}
	b := make([]int64, n+1)
	for i := 0; i < n; i++ {
		// i*width/n in 128 bits: the product passes 2^64 on wide domains.
		ph, pl := bits.Mul64(uint64(i), width)
		if width == 0 {
			ph, pl = uint64(i), 0
		}
		q, _ := bits.Div64(ph, pl, uint64(n))
		b[i] = lo + int64(q)
	}
	b[n] = cdfmodel.Above(hi)
	return &Histogram{Bounds: b, Mass: make([]float64, n)}
}

// NewFromValues builds a one-bin-per-unique-value histogram when the column
// has at most maxBins unique values, otherwise an equi-width histogram with
// maxBins bins. values need not be sorted.
func NewFromValues(values []int64, maxBins int) *Histogram {
	if len(values) == 0 {
		return NewEquiWidth(0, 0, 1)
	}
	uniq := uniqueSorted(values, maxBins+1)
	if len(uniq) <= maxBins {
		b := make([]int64, len(uniq)+1)
		copy(b, uniq)
		b[len(uniq)] = cdfmodel.Above(uniq[len(uniq)-1])
		return &Histogram{Bounds: b, Mass: make([]float64, len(uniq))}
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return NewEquiWidth(lo, hi, maxBins)
}

// uniqueSorted returns values' distinct values in ascending order when
// there are fewer than limit of them. Otherwise it returns limit distinct
// values, the first limit it meets, and stops reading there: one pass over
// a sorted set of at most limit values, no copy or sort of values.
func uniqueSorted(values []int64, limit int) []int64 {
	out := make([]int64, 0, max(limit, 0))
	for _, v := range values {
		i, found := slices.BinarySearch(out, v)
		if found {
			continue
		}
		out = slices.Insert(out, i, v)
		if len(out) >= limit {
			break
		}
	}
	return out
}

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.Mass) }

// Lo returns the inclusive lower edge of the histogram domain.
func (h *Histogram) Lo() int64 { return h.Bounds[0] }

// Hi returns the inclusive upper edge of the histogram domain.
func (h *Histogram) Hi() int64 { return h.Bounds[len(h.Bounds)-1] - 1 }

// Bin returns the bin index containing v, clamped to [0, NumBins).
func (h *Histogram) Bin(v int64) int {
	// First bound > v, minus one.
	i := sort.Search(len(h.Bounds), func(i int) bool { return h.Bounds[i] > v }) - 1
	if i < 0 {
		return 0
	}
	if i >= h.NumBins() {
		return h.NumBins() - 1
	}
	return i
}

// AddRange spreads total mass m uniformly over the bins intersecting
// [lo, hi] (inclusive), 1/k to each of the k intersecting bins. This is how
// a query's filter range contributes to the skew histogram (§4.2.1).
func (h *Histogram) AddRange(lo, hi int64, m float64) {
	if hi < lo {
		return
	}
	a, b := h.Bin(lo), h.Bin(hi)
	if b < a {
		a, b = b, a
	}
	per := m / float64(b-a+1)
	for i := a; i <= b; i++ {
		h.Mass[i] += per
	}
}

// Total returns the total mass.
func (h *Histogram) Total() float64 {
	t := 0.0
	for _, m := range h.Mass {
		t += m
	}
	return t
}

// MassIn returns the summed mass of bins [x, y).
func (h *Histogram) MassIn(x, y int) float64 {
	t := 0.0
	for i := x; i < y; i++ {
		t += h.Mass[i]
	}
	return t
}

// String renders the histogram for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{bins=%d lo=%d hi=%d mass=%.1f}", h.NumBins(), h.Lo(), h.Hi(), h.Total())
}

// SkewOver computes the query skew of the histogram restricted to bins
// [x, y): the Earth Mover's Distance between the (unnormalized) empirical
// mass vector and a uniform vector with the same total (§4.2.1). Mass is NOT
// normalized to 1, so that skews are comparable in units of query mass and
// thresholds like "5% of |Q|" are meaningful.
func (h *Histogram) SkewOver(x, y int) float64 {
	if y-x <= 1 {
		// A single bin cannot distinguish uniform from the query PDF (§4.3.2).
		return 0
	}
	total := h.MassIn(x, y)
	if total == 0 {
		return 0
	}
	uni := total / float64(y-x)
	// 1-D EMD with unit ground distance between adjacent bins:
	// sum of absolute prefix-sum differences.
	emd := 0.0
	prefix := 0.0
	for i := x; i < y-1; i++ {
		prefix += h.Mass[i] - uni
		if prefix < 0 {
			emd -= prefix
		} else {
			emd += prefix
		}
	}
	// Normalize by the number of bins so skew is measured in mass units and
	// invariant to bin granularity.
	return emd / float64(y-x)
}
