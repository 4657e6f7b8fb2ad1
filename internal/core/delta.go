package core

import (
	"repro/internal/colstore"
	"repro/internal/gridtree"
	"repro/internal/query"
)

// Insertion support (§8 "Data and Workload Shift"): Tsunami is
// read-optimized, so inserts are buffered in a per-region delta sibling —
// a small row-major buffer scanned alongside the region's grid — and
// periodically folded into the clustered layout by MergedCopy, exactly
// the differential-file scheme the paper proposes [Severance & Lohman
// 1976]. A built index is never written: CopyWithInserts derives a
// successor holding the new rows.

// delta is one region's insert buffer.
type delta struct {
	rows [][]int64
}

// NumBuffered reports how many inserted rows await merging.
func (t *Tsunami) NumBuffered() int { return t.numBuffered }

// findRegionForPoint walks split nodes to the leaf containing the point:
// at each node, the child after the last split value at most the point's.
func findRegionForPoint(nd *gridtree.Node, row []int64) *gridtree.Region {
	for nd.Region == nil {
		v, vals := row[nd.SplitDim], nd.SplitVals
		lo, hi := 0, len(vals)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if vals[m] > v {
				hi = m
			} else {
				lo = m + 1
			}
		}
		nd = nd.Children[lo]
	}
	return nd.Region
}

// scanDeltas folds matches from the delta buffers of the regions the
// query intersects — into acc when the query is grouped (acc non-nil),
// into res otherwise; ExecuteWith calls it after the clustered scan.
// Each buffered row is one scanned point; it returns how many it visited.
func (t *Tsunami) scanDeltas(q query.Query, regions []*gridtree.Region, res *colstore.ScanResult, acc *colstore.GroupAccumulator) (scanned int) {
	if t.numBuffered == 0 {
		return 0
	}
	for _, r := range regions {
		d := t.deltas[r.ID]
		if d == nil {
			continue
		}
		scanned += len(d.rows)
		if acc != nil {
			acc.AddScanned(uint64(len(d.rows)), 0)
		} else {
			res.PointsScanned += uint64(len(d.rows))
		}
		for _, row := range d.rows {
			if !q.MatchesRow(row) {
				continue
			}
			var v int64
			if q.Agg == query.Sum {
				v = row[q.AggDim]
			}
			if acc != nil {
				acc.AddRow(row[q.GroupDim()], v)
			} else {
				res.Count++
				res.Sum += v
			}
		}
	}
	return scanned
}
