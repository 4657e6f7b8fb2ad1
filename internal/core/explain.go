package core

import (
	"fmt"
	"strings"

	"repro/internal/colstore"
	"repro/internal/query"
)

// RegionTrace describes how one Grid Tree region contributed to a query.
type RegionTrace struct {
	RegionID      int
	Rows          int
	HasGrid       bool
	GridCells     int
	CellRanges    int
	CellsVisited  int
	PointsScanned uint64
	Matched       uint64
}

// Trace is a query execution trace: which regions the Grid Tree routed the
// query to and the work done in each (the paper's §3 query workflow made
// visible).
type Trace struct {
	Query   query.Query
	Regions []RegionTrace
	Total   colstore.ScanResult
	// RegionsTotal is the number of leaf regions in the index, for
	// "visited k of n" reporting.
	RegionsTotal int
}

// Explain executes q and records per-region work. Like Execute it keeps all
// per-query state in a pooled context, so it is safe for concurrent callers.
func (t *Tsunami) Explain(q query.Query) Trace {
	ctx := execCtxPool.Get().(*execContext)
	defer execCtxPool.Put(ctx)
	tr := Trace{Query: q, RegionsTotal: len(t.tree.Regions)}
	ctx.regions = t.tree.FindRegions(q, ctx.regions[:0])
	for _, r := range ctx.regions {
		rt := RegionTrace{RegionID: r.ID, Rows: t.regionRows(r.ID)}
		var res colstore.ScanResult
		if g := t.grids[r.ID]; g != nil {
			rt.HasGrid = true
			rt.GridCells = g.NumCells()
			sub, st := g.Execute(q, ctx.grid)
			res = sub
			rt.CellRanges = st.CellRanges
			rt.CellsVisited = st.CellsVisited
		} else {
			b := t.bounds[r.ID]
			t.store.ScanRange(q, b[0], b[1], q.ContainsBox(r.Lo, r.Hi), &res)
			rt.CellRanges = 1
		}
		rt.PointsScanned = res.PointsScanned
		rt.Matched = res.Count
		tr.Total.Merge(res)
		tr.Regions = append(tr.Regions, rt)
	}
	t.scanDeltas(q, ctx.regions, &tr.Total, nil)
	return tr
}

// String renders the trace as an EXPLAIN-style report.
func (tr Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", tr.Query)
	fmt.Fprintf(&b, "regions visited: %d of %d\n", len(tr.Regions), tr.RegionsTotal)
	for _, r := range tr.Regions {
		kind := "scan"
		if r.HasGrid {
			kind = fmt.Sprintf("grid(%d cells)", r.GridCells)
		}
		fmt.Fprintf(&b, "  region %-3d %-16s rows=%-8d ranges=%-4d scanned=%-8d matched=%d\n",
			r.RegionID, kind, r.Rows, r.CellRanges, r.PointsScanned, r.Matched)
	}
	fmt.Fprintf(&b, "total: count=%d sum=%d scanned=%d\n",
		tr.Total.Count, tr.Total.Sum, tr.Total.PointsScanned)
	return b.String()
}
