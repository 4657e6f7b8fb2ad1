package auggrid

import (
	"repro/internal/colstore"
	"repro/internal/query"
)

// ScanRanges is the one routine that answers a plan: it scans planned
// ranges of st against q into acc when the query is grouped (acc
// non-nil), into res otherwise. The query is prepared once for all its
// ranges (colstore.Store.Prepare): whether its filters are compared on
// the columns' byte images or on their int64 values is one decision per
// query, not per range.
func ScanRanges(st *colstore.Store, q query.Query, ranges []PhysRange, res *colstore.ScanResult, acc *colstore.GroupAccumulator) {
	sc := st.Prepare(q)
	sc.ScanRanges(ranges, res, acc)
}
