package core

import (
	"fmt"
	"slices"
)

// Copy-on-write maintenance (§8 serving): the variants in this file never
// mutate their receiver, so a published index can keep serving lock-free
// readers while a writer or a background maintainer derives the next
// version from it. They are the building blocks of the epoch-based
// LiveStore (internal/live): CopyWithInserts is the serialized ingest
// step, MergedCopy, ReoptimizeRegionsCopy and SplitRange — one region
// rewrite (rewrite.go) with different arguments — are the background
// maintenance steps, and every result is published with a single atomic
// pointer swap.

// CopyWithInserts returns a copy of t whose delta buffers additionally
// hold rows, leaving t untouched. The copy shares the clustered column
// data, Grid Tree, and region grids with t — only the delta containers of
// the regions the batch touches are replaced, one new container each —
// so it is cheap enough to run per ingest batch. The copy retains the row
// slices themselves (no defensive copy): the caller must not mutate them
// afterwards.
//
// Concurrency: t may be serving concurrent readers during the call.
// Callers must serialize all CopyWithInserts calls deriving from the same
// lineage (successive copies may share delta backing arrays; the single-
// writer discipline keeps every array slot written exactly once, before
// the version that exposes it is published).
func (t *Tsunami) CopyWithInserts(rows [][]int64) (*Tsunami, error) {
	d := t.store.NumDims()
	for _, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("core: row has %d values, table has %d dims", len(row), d)
		}
	}
	nt := &Tsunami{
		cfg:         t.cfg,
		store:       t.store,
		tree:        t.tree,
		grids:       t.grids,
		bounds:      t.bounds,
		stats:       t.stats,
		numBuffered: t.numBuffered,
	}
	nt.deltas = make(map[int]*delta, len(t.deltas)+1)
	for id, dl := range t.deltas {
		nt.deltas[id] = dl
	}
	for _, row := range rows {
		id := findRegionForPoint(t.tree.Root, row).ID
		nd := nt.deltas[id]
		if nd == nil || nd == t.deltas[id] {
			// The first of the batch's rows in this region: the new
			// container continues the receiver's rows.
			fresh := &delta{}
			if nd != nil {
				fresh.rows = nd.rows
			}
			nd, nt.deltas[id] = fresh, fresh
		}
		nd.rows = append(nd.rows, row)
	}
	nt.numBuffered += len(rows)
	return nt, nil
}

// MergedCopy returns a new index equal to t with every buffered row
// folded into the clustered layout, leaving t untouched so it can keep
// serving reads for the whole merge. Each region with buffered rows keeps
// its fitted grid and has only those rows placed and merge-walked into its
// cells (auggrid.Fold); a region that has grown or shrunk away from its
// fit (auggrid's relearnGrowth) has its grid rebuilt with its existing
// layout instead. The other regions are copied verbatim, their grids
// rebound. The Grid Tree structure and all layouts are unchanged
// (re-optimization is a separate, heavier operation — see
// ReoptimizeRegionsCopy and Reoptimize). It returns the copy and how many
// rows were folded; with nothing buffered the fold count is zero and the
// returned copy is t itself.
func (t *Tsunami) MergedCopy() (*Tsunami, int, error) { return t.MergedCopyReusing(nil, nil) }

// MergedCopyReusing is MergedCopy writing the successor's columns into
// the arrays of spare, one per dim, when each has room for them (into
// fresh ones otherwise), and giving up with ErrStopped when stop, polled
// before each region, reports true. A merge writes a whole new copy of
// the table; into fresh memory that costs a page fault per page first
// touched, which made one merge take up to twice as long as the next, and
// a caller that hands a retired successor's arrays to its next merge
// skips the faults and the zeroing. The caller must own spare outright:
// nothing may read those arrays again except through the returned index.
// spare and stop may be nil.
func (t *Tsunami) MergedCopyReusing(spare [][]int64, stop func() bool) (*Tsunami, int, error) {
	if t.numBuffered == 0 {
		return t, 0, nil
	}
	d, need := t.store.NumDims(), t.store.NumRows()+t.numBuffered
	var cols [][]int64
	if len(spare) == d && !slices.ContainsFunc(spare, func(c []int64) bool { return cap(c) < need }) {
		cols = make([][]int64, d)
		for j, c := range spare {
			cols[j] = c[:0]
		}
	}
	nt, _, err := t.rewrite(nil, nil, cols, stop)
	return nt, t.numBuffered, err
}

// BufferedRows returns a copy of every inserted-but-unmerged row, in
// deterministic region order. LiveStore uses it to seed its replay log
// when reopening from a snapshot.
func (t *Tsunami) BufferedRows() [][]int64 {
	if t.numBuffered == 0 {
		return nil
	}
	out := make([][]int64, 0, t.numBuffered)
	for _, r := range t.tree.Regions {
		if d := t.deltas[r.ID]; d != nil {
			for _, row := range d.rows {
				out = append(out, append([]int64(nil), row...))
			}
		}
	}
	return out
}
