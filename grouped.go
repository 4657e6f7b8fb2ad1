package tsunami

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/query"
)

// GroupedResult names a Result that carries groups — a grouped query's
// answer: one GroupAgg per distinct group key, sorted by key, Count and
// Sum totalled over them. Partial results merge exactly (per-group count
// and sum add; AVG derives from the merged pair), which is what lets
// grouped queries scatter-gather across shards by the same merge as flat
// aggregates.
type GroupedResult = Result

// GroupAgg is one group's aggregate: the group key, the matching row
// count, and (for SUM/AVG queries) the sum of the aggregated column.
type GroupAgg = colstore.GroupAgg

// CountBy builds a COUNT(*) ... GROUP BY dim query.
func CountBy(dim int, filters ...Filter) Query {
	return query.NewCount(filters...).By(dim)
}

// SumBy builds a SUM(aggDim) ... GROUP BY dim query.
func SumBy(aggDim, dim int, filters ...Filter) Query {
	return query.NewSum(aggDim, filters...).By(dim)
}

// ErrNotGrouped reports a grouped query sent to an index that cannot
// answer grouped aggregates (a baseline index), or a flat query sent to
// ServeGrouped.
var ErrNotGrouped = fmt.Errorf("tsunami: index does not support grouped aggregates")

// ServeGrouped is Serve for callers that want a grouped answer or an
// error, never a flat answer dressed as grouped: a query with no GROUP
// BY, or an index that cannot group (a baseline), yields ErrNotGrouped.
func (e *Executor) ServeGrouped(q Query, pri Priority) (GroupedResult, error) {
	if err := e.groups(q); err != nil {
		return GroupedResult{}, err
	}
	return e.Serve(q, pri)
}

// groups reports why q cannot be answered grouped here, or nil.
func (e *Executor) groups(q Query) error {
	if !q.Grouped() {
		return fmt.Errorf("%w: query %s has no GROUP BY; use Execute", ErrNotGrouped, q)
	}
	if _, ok := e.idx.(pipelined); !ok {
		return fmt.Errorf("%w: %s", ErrNotGrouped, e.idx.Name())
	}
	return nil
}
