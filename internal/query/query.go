// Package query defines the multi-dimensional range query model shared by
// every index in this repository.
//
// A query is a conjunction of per-dimension range predicates over a table of
// int64 attributes, matching the paper's workload model (§2):
//
//	SELECT AGG(col) FROM t WHERE a <= X <= b AND c <= Y <= d
//
// Equality predicates are ranges with Lo == Hi. All bounds are inclusive.
package query

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// NoBound marks one side of a filter as unbounded.
const (
	NoLo = math.MinInt64
	NoHi = math.MaxInt64
)

// Filter is an inclusive range predicate over a single dimension.
type Filter struct {
	Dim int   // column index
	Lo  int64 // inclusive lower bound (NoLo if absent)
	Hi  int64 // inclusive upper bound (NoHi if absent)
}

// Matches reports whether value v satisfies the filter.
func (f Filter) Matches(v int64) bool { return v >= f.Lo && v <= f.Hi }

// IsEquality reports whether the filter pins the dimension to a single value.
func (f Filter) IsEquality() bool { return f.Lo == f.Hi }

// Agg identifies the aggregation a query performs.
type Agg int

const (
	// Count is COUNT(*).
	Count Agg = iota
	// Sum is SUM over AggDim.
	Sum
)

// Query is a conjunctive multi-dimensional range query.
type Query struct {
	Filters []Filter
	Agg     Agg
	AggDim  int // dimension summed when Agg == Sum

	// GroupBy holds 1 + the grouping dimension when the query is a
	// grouped aggregate (GROUP BY <dim>), and 0 for a flat aggregate.
	// The +1 bias makes the zero value of Query — and every existing
	// composite literal that omits the field — an ungrouped query;
	// read it through Grouped and GroupDim, set it through By.
	GroupBy int

	// Type is the workload-assigned query type id (§4.3.1); -1 if unknown.
	Type int
}

// NewCount builds a COUNT(*) query over the given filters.
func NewCount(filters ...Filter) Query {
	return Query{Filters: normalize(filters), Agg: Count, Type: -1}
}

// NewSum builds a SUM(dim) query over the given filters.
func NewSum(dim int, filters ...Filter) Query {
	return Query{Filters: normalize(filters), Agg: Sum, AggDim: dim, Type: -1}
}

// By returns a copy of the query grouped by dim: the aggregate is
// computed per distinct value of column dim instead of once over all
// matching rows. Filters are untouched — GROUP BY composes with any
// predicate set.
func (q Query) By(dim int) Query {
	q.GroupBy = 1 + dim
	return q
}

// Grouped reports whether the query is a grouped aggregate.
func (q Query) Grouped() bool { return q.GroupBy != 0 }

// GroupDim returns the grouping dimension. Only meaningful when
// Grouped() is true.
func (q Query) GroupDim() int { return q.GroupBy - 1 }

// normalize sorts filters by dimension and merges duplicates on the same
// dimension into their intersection.
func normalize(fs []Filter) []Filter {
	if len(fs) == 0 {
		return nil
	}
	out := make([]Filter, len(fs))
	copy(out, fs)
	sort.Slice(out, func(i, j int) bool { return out[i].Dim < out[j].Dim })
	merged := out[:1]
	for _, f := range out[1:] {
		last := &merged[len(merged)-1]
		if f.Dim == last.Dim {
			if f.Lo > last.Lo {
				last.Lo = f.Lo
			}
			if f.Hi < last.Hi {
				last.Hi = f.Hi
			}
			continue
		}
		merged = append(merged, f)
	}
	return merged
}

// Filter returns the filter over dim and whether one exists.
func (q Query) Filter(dim int) (Filter, bool) {
	for _, f := range q.Filters {
		if f.Dim == dim {
			return f, true
		}
	}
	return Filter{}, false
}

// FilteredDims returns the sorted set of dimensions the query filters.
func (q Query) FilteredDims() []int {
	dims := make([]int, len(q.Filters))
	for i, f := range q.Filters {
		dims[i] = f.Dim
	}
	return dims
}

// DimSetKey returns a canonical string key for the set of filtered
// dimensions, used to group queries that filter the same dimensions (§4.3.1).
func (q Query) DimSetKey() string {
	var b strings.Builder
	for i, f := range q.Filters {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", f.Dim)
	}
	return b.String()
}

// Matches reports whether the d-dimensional point (given as a row accessor)
// satisfies every filter. at(dim) must return the point's value in dim.
func (q Query) Matches(at func(dim int) int64) bool {
	for _, f := range q.Filters {
		if !f.Matches(at(f.Dim)) {
			return false
		}
	}
	return true
}

// MatchesRow reports whether the row vector satisfies every filter.
func (q Query) MatchesRow(row []int64) bool {
	for _, f := range q.Filters {
		v := row[f.Dim]
		if v < f.Lo || v > f.Hi {
			return false
		}
	}
	return true
}

// ContainsBox reports whether the box [lo, hi] (one inclusive bound pair
// per dimension) lies inside every filter: every point of the box
// matches, so rows known to be in it can be scanned without per-value
// checks.
func (q Query) ContainsBox(lo, hi []int64) bool {
	for _, f := range q.Filters {
		if lo[f.Dim] < f.Lo || hi[f.Dim] > f.Hi {
			return false
		}
	}
	return true
}

// IntersectsBox reports whether the box [lo, hi] overlaps every filter:
// false means no point of the box can match.
func (q Query) IntersectsBox(lo, hi []int64) bool {
	for _, f := range q.Filters {
		if hi[f.Dim] < f.Lo || lo[f.Dim] > f.Hi {
			return false
		}
	}
	return true
}

// String renders the query compactly for logs and tests.
func (q Query) String() string {
	var b strings.Builder
	switch q.Agg {
	case Count:
		b.WriteString("COUNT(*)")
	case Sum:
		fmt.Fprintf(&b, "SUM(d%d)", q.AggDim)
	}
	b.WriteString(" WHERE ")
	for i, f := range q.Filters {
		if i > 0 {
			b.WriteString(" AND ")
		}
		switch {
		case f.IsEquality():
			fmt.Fprintf(&b, "d%d=%d", f.Dim, f.Lo)
		case f.Lo == NoLo:
			fmt.Fprintf(&b, "d%d<=%d", f.Dim, f.Hi)
		case f.Hi == NoHi:
			fmt.Fprintf(&b, "d%d>=%d", f.Dim, f.Lo)
		default:
			fmt.Fprintf(&b, "%d<=d%d<=%d", f.Lo, f.Dim, f.Hi)
		}
	}
	if q.Grouped() {
		fmt.Fprintf(&b, " GROUP BY d%d", q.GroupDim())
	}
	return b.String()
}
