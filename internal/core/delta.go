package core

import (
	"fmt"
	"sort"

	"repro/internal/colstore"
	"repro/internal/gridtree"
	"repro/internal/query"
)

// Insertion support (§8 "Data and Workload Shift"): Tsunami is
// read-optimized, so inserts are buffered in a per-region delta sibling —
// a small row-major buffer scanned alongside the region's grid — and
// periodically folded into the clustered layout by MergedCopy, exactly
// the differential-file scheme the paper proposes [Severance & Lohman
// 1976].

// delta is one region's insert buffer.
type delta struct {
	rows [][]int64
}

// Insert buffers a new point in the region that contains it. The row's
// length must match the table's dimensionality. Insert is the index's only
// mutator: it may run only on an index no reader holds and that owns its
// delta buffers — one a single goroutine built or loaded, or the successor
// of a region rewrite (MergedCopyOver, ReoptimizeRegionsCopy, SplitRange)
// before it is published, which is LiveStore's tail replay. A
// CopyWithInserts successor shares buffers with its receiver: to add rows
// to an index that is serving readers, call CopyWithInserts again.
func (t *Tsunami) Insert(row []int64) error {
	if len(row) != t.store.NumDims() {
		return fmt.Errorf("core: row has %d values, table has %d dims", len(row), t.store.NumDims())
	}
	r := findRegionForPoint(t.tree.Root, row)
	if t.deltas == nil {
		t.deltas = make(map[int]*delta)
	}
	d := t.deltas[r.ID]
	if d == nil {
		d = &delta{}
		t.deltas[r.ID] = d
	}
	d.rows = append(d.rows, append([]int64(nil), row...))
	t.numBuffered++
	return nil
}

// NumBuffered reports how many inserted rows await merging.
func (t *Tsunami) NumBuffered() int { return t.numBuffered }

// findRegionForPoint walks split nodes to the leaf containing the point.
func findRegionForPoint(nd *gridtree.Node, row []int64) *gridtree.Region {
	for nd.Region == nil {
		v := row[nd.SplitDim]
		i := sort.Search(len(nd.SplitVals), func(i int) bool { return nd.SplitVals[i] > v })
		nd = nd.Children[i]
	}
	return nd.Region
}

// scanDeltas folds matches from the delta buffers of the regions the
// query intersects — into acc when the query is grouped (acc non-nil),
// into res otherwise; ExecuteWith calls it after the clustered scan.
// Each buffered row is one scanned point.
func (t *Tsunami) scanDeltas(q query.Query, regions []*gridtree.Region, res *colstore.ScanResult, acc *colstore.GroupAccumulator) {
	if t.numBuffered == 0 {
		return
	}
	for _, r := range regions {
		d := t.deltas[r.ID]
		if d == nil {
			continue
		}
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
}
