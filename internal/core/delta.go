package core

import (
	"fmt"
	"sort"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/gridtree"
	"repro/internal/query"
)

// Insertion support (§8 "Data and Workload Shift"): Tsunami is
// read-optimized, so inserts are buffered in a per-region delta sibling —
// a small row-major buffer scanned alongside the region's grid — and
// periodically folded into the clustered layout by MergeDeltas, exactly
// the differential-file scheme the paper proposes [Severance & Lohman
// 1976].

// delta is one region's insert buffer.
type delta struct {
	rows [][]int64
}

// Insert buffers a new point in the region that contains it. The row's
// length must match the table's dimensionality.
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

// MergeDeltas folds every buffered row into the clustered layout without
// re-optimizing: each affected region's grid is rebuilt with its existing
// layout over the union of its old rows and its buffered rows, and the
// column store is rewritten once. The Grid Tree structure and all layouts
// are unchanged (re-optimization is a separate, heavier operation — see
// Reoptimize).
func (t *Tsunami) MergeDeltas() error {
	_, err := t.MergeDeltasOver(0)
	return err
}

// MergeDeltasOver is MergeDeltas restricted to hot regions: only regions
// whose own delta buffer holds at least minPerRegion rows are folded into
// the clustered layout; colder regions keep their rows buffered (still
// scanned alongside the clustered data, exactly as before the merge).
// Untouched and below-threshold regions are copied into the rewritten
// store verbatim and their grids rebased rather than rebuilt. The store
// rewrite itself is still O(table) — contiguous region segments leave no
// way to splice — but the per-region sort and grid rebuild, the dominant
// merge cost, is paid only for the hot regions: the win on skewed
// ingest, where a few regions absorb most inserts. minPerRegion <= 1
// folds every region with buffered rows. It returns how many buffered
// rows were folded; zero means nothing crossed the threshold and the
// index was left untouched.
func (t *Tsunami) MergeDeltasOver(minPerRegion int) (int, error) {
	if t.numBuffered == 0 {
		return 0, nil
	}
	fold := func(id int) bool {
		d := t.deltas[id]
		return d != nil && len(d.rows) > 0 && (minPerRegion <= 1 || len(d.rows) >= minPerRegion)
	}
	folded := 0
	for _, r := range t.tree.Regions {
		if fold(r.ID) {
			folded += len(t.deltas[r.ID].rows)
		}
	}
	if folded == 0 {
		return 0, nil
	}

	d := t.store.NumDims()
	newCols := make([][]int64, d)
	for j := range newCols {
		newCols[j] = make([]int64, 0, t.store.NumRows()+folded)
	}
	appendRow := func(src *colstore.Store, i int) {
		for j := 0; j < d; j++ {
			newCols[j] = append(newCols[j], src.Value(i, j))
		}
	}

	// Stage each folded region's rows (old segment + buffered) into a
	// scratch store, rebuild its grid with its existing layout, and emit
	// the grid-ordered rows; all other regions are copied verbatim (their
	// row order is unchanged, so their grids only need rebasing onto the
	// rewritten store).
	newBounds := make([][2]int, len(t.bounds))
	newGrids := make([]*auggrid.Grid, len(t.grids))
	rebuilt := make([]bool, len(t.grids))
	newDeltas := make(map[int]*delta)
	cursor := 0
	for _, r := range t.tree.Regions {
		b := t.bounds[r.ID]
		start := cursor
		if !fold(r.ID) {
			for j := 0; j < d; j++ {
				newCols[j] = append(newCols[j], t.store.Column(j)[b[0]:b[1]]...)
			}
			if dl := t.deltas[r.ID]; dl != nil && len(dl.rows) > 0 {
				// Fresh container and backing array (row slices are shared;
				// they are immutable once ingested): later appends to the
				// merged index — LiveStore's replay runs before it is
				// published — must not touch arrays a serving epoch reads.
				newDeltas[r.ID] = &delta{rows: append([][]int64(nil), dl.rows...)}
			}
			cursor += b[1] - b[0]
			newBounds[r.ID] = [2]int{start, cursor}
			if start != b[0] {
				// The segment shifted (an earlier region grew): refresh the
				// region's absolute row ids.
				r.Rows = make([]int, cursor-start)
				for i := range r.Rows {
					r.Rows[i] = start + i
				}
			}
			continue
		}
		// Widen the region's box to cover buffered rows: the Grid Tree only
		// constrains split dimensions, so an insert may lie outside the
		// recorded min/max of the others, and regionContained relies on
		// the box being sound.
		for _, row := range t.deltas[r.ID].rows {
			for j, v := range row {
				if v < r.Lo[j] {
					r.Lo[j] = v
				}
				if v > r.Hi[j] {
					r.Hi[j] = v
				}
			}
		}
		seg := buildSegmentStore(t.store, b[0], b[1], t.deltas[r.ID])
		segRows := make([]int, seg.NumRows())
		for i := range segRows {
			segRows[i] = i
		}
		if g := t.grids[r.ID]; g != nil {
			ng, ordered, err := auggrid.Build(seg, segRows, g.Layout())
			if err != nil {
				return 0, fmt.Errorf("core: merge rebuild of region %d: %w", r.ID, err)
			}
			for _, i := range ordered {
				appendRow(seg, i)
			}
			newGrids[r.ID] = ng
			rebuilt[r.ID] = true
		} else {
			for i := range segRows {
				appendRow(seg, i)
			}
		}
		cursor += seg.NumRows()
		newBounds[r.ID] = [2]int{start, cursor}
		// Keep the region's row bookkeeping consistent for IndexStats.
		r.Rows = make([]int, seg.NumRows())
		for i := range r.Rows {
			r.Rows[i] = start + i
		}
	}

	newStore, err := colstore.FromColumns(newCols, t.store.Names())
	if err != nil {
		return 0, fmt.Errorf("core: merge: %w", err)
	}
	for id, g := range t.grids {
		switch {
		case rebuilt[id]:
			newGrids[id].Finalize(newStore, newBounds[id][0])
		case g != nil:
			newGrids[id] = g.Rebase(newStore, newBounds[id][0])
		}
	}
	t.store = newStore
	t.grids = newGrids
	t.bounds = newBounds
	if len(newDeltas) == 0 {
		newDeltas = nil
	}
	t.deltas = newDeltas
	t.numBuffered -= folded
	return folded, nil
}

// buildSegmentStore copies physical rows [start, end) plus a delta buffer
// into a standalone store.
func buildSegmentStore(src *colstore.Store, start, end int, d *delta) *colstore.Store {
	dims := src.NumDims()
	cols := make([][]int64, dims)
	n := end - start
	extra := 0
	if d != nil {
		extra = len(d.rows)
	}
	for j := 0; j < dims; j++ {
		cols[j] = make([]int64, 0, n+extra)
		cols[j] = append(cols[j], src.Column(j)[start:end]...)
	}
	if d != nil {
		for _, row := range d.rows {
			for j := 0; j < dims; j++ {
				cols[j] = append(cols[j], row[j])
			}
		}
	}
	st, err := colstore.FromColumns(cols, src.Names())
	if err != nil {
		panic("core: " + err.Error()) // columns are equal-length by construction
	}
	return st
}
