package auggrid

import (
	"repro/internal/colstore"
	"repro/internal/query"
)

// prefetchAhead is how many planned ranges ahead of the scan ScanRanges
// prefetches. A plan is mostly short ranges (a median of ~17 rows on the
// Taxi workloads), each a few lines per column, so scanning them one by
// one waits out one memory latency per range; issuing the fetches two
// ranges early overlaps those waits with the scans in between.
const prefetchAhead = 2

// ScanRanges is the one routine that answers a plan: it scans planned
// ranges of st against q into acc when the query is grouped (acc
// non-nil), into res otherwise, prefetching the columns of the range
// prefetchAhead positions on. Exact ranges are not prefetched: their scan
// reads no filter column.
func ScanRanges(st *colstore.Store, q query.Query, ranges []PhysRange, res *colstore.ScanResult, acc *colstore.GroupAccumulator) {
	for i, pr := range ranges {
		if j := i + prefetchAhead; j < len(ranges) && !ranges[j].Exact {
			st.Prefetch(q, ranges[j].Start, ranges[j].End)
		}
		if acc != nil {
			st.ScanRangeGrouped(q, pr.Start, pr.End, pr.Exact, acc)
		} else {
			st.ScanRange(q, pr.Start, pr.End, pr.Exact, res)
		}
	}
}
