package core

import "fmt"

// Range extraction (shard rebalancing support): SplitRange carves a key
// range out of an index into a row set, producing a successor index that
// serves everything else. It is the source-shard half of an online
// migration — the sharded rebalancer extracts a moving range from one
// shard and drains it into a neighbor's ingest path — and, as one more
// caller of the copy-on-write region rewrite (rewrite.go), it never
// mutates its receiver, so a published epoch keeps serving lock-free
// readers for the whole rebuild.

// SplitRange returns a copy of t that no longer contains the rows whose
// dim value lies in [lo, hi] (both inclusive), together with those rows.
// Buffered rows are folded into the copy's clustered layout as part of
// the rewrite (in-range buffered rows join the moved set), so the copy
// starts with empty delta buffers. Affected regions keep their grids'
// layouts: their leaving rows are skipped and their buffered rows folded
// in, and a region the cut leaves with under half the rows its grid was
// fitted over is built again; untouched regions are copied verbatim and
// their grids rebound. t is untouched and can keep serving reads throughout.
//
// The returned rows may share backing slices with t's delta buffers;
// treat them as immutable.
func (t *Tsunami) SplitRange(dim int, lo, hi int64) (*Tsunami, [][]int64, error) {
	if dim < 0 || dim >= t.store.NumDims() {
		return nil, nil, fmt.Errorf("core: split dim %d out of range (table has %d dims)", dim, t.store.NumDims())
	}
	if lo > hi {
		return nil, nil, fmt.Errorf("core: split range [%d, %d] is empty", lo, hi)
	}
	return t.rewrite(&rangeCut{dim: dim, lo: lo, hi: hi}, nil, nil, nil)
}
