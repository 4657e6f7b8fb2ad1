package core

import (
	"fmt"
	"slices"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/gridtree"
	"repro/internal/query"
)

// The one maintenance operation (§8): rewrite the clustered table region
// by region, copying a region verbatim or rebuilding its grid. Merging
// delta buffers (MergedCopy), carving a key range out (SplitRange) and
// re-optimizing drifted regions (ReoptimizeRegionsCopy) are this pass with
// different arguments.

// rangeCut is a split's moving range: rows whose dim value lies in
// [lo, hi] leave the successor for the moved set.
type rangeCut struct {
	dim    int
	lo, hi int64
}

func (c *rangeCut) holds(v int64) bool { return v >= c.lo && v <= c.hi }

// rewrite derives a successor index on a fresh column store and never
// writes its receiver, which can keep serving readers throughout. Every
// region folds its delta buffer into the clustered layout, so the
// successor buffers nothing. Per region it is driven by two inputs:
//
//   - cut (optional): rows inside the range leave the successor — from the
//     clustered segment and from the buffer alike — and are returned.
//   - reopt (optional): a region with an entry gets a grid laid out by
//     auggrid.Optimize for those queries, or no grid when the set is
//     empty, and records them as its workload.
//
// A region with no buffered rows that neither input touches is
// bulk-copied and its grid bound to the new store, sharing every table.
// Any other region is staged (surviving clustered rows, then buffered
// rows), built once — with the new layout, or its existing one — and
// emitted in grid order; one that has no grid, or that emptied out, is
// emitted as plain rows.
// What the successor shares with the receiver is immutable: untouched
// grids' layouts and models, and query sets; the moved set may hold the
// receiver's buffered row slices themselves. The Grid Tree is copied,
// because folded rows widen the successor's region boxes (the tree only
// constrains split dimensions, so an insert may lie outside the recorded
// min/max of the others, and the exact-scan test relies on sound boxes).
func (t *Tsunami) rewrite(cut *rangeCut, reopt map[int][]query.Query) (*Tsunami, [][]int64, error) {
	d := t.store.NumDims()
	nt := &Tsunami{
		cfg:    t.cfg,
		stats:  t.stats,
		tree:   cloneTree(t.tree),
		grids:  make([]*auggrid.Grid, len(t.grids)),
		bounds: make([][2]int, len(t.bounds)),
	}
	cols := make([][]int64, d)
	for j := range cols {
		cols[j] = make([]int64, 0, t.store.NumRows()+t.numBuffered)
	}
	var moved [][]int64
	for _, r := range nt.tree.Regions {
		id, b := r.ID, t.bounds[r.ID]
		var buffered [][]int64
		if dl := t.deltas[id]; dl != nil {
			buffered = dl.rows
		}
		cutting := cut != nil && r.Lo[cut.dim] <= cut.hi && r.Hi[cut.dim] >= cut.lo &&
			slices.ContainsFunc(t.store.Column(cut.dim)[b[0]:b[1]], cut.holds)
		queries, reoptimize := reopt[id]
		start := len(cols[0])
		if len(buffered) == 0 && !cutting && !reoptimize {
			for j := range cols {
				cols[j] = append(cols[j], t.store.Column(j)[b[0]:b[1]]...)
			}
			nt.grids[id] = t.grids[id] // bound below, once the store exists
			nt.bounds[id] = [2]int{start, len(cols[0])}
			continue
		}

		// Stage the region's surviving rows: the clustered segment, copied
		// in runs between the rows that leave, then the buffer.
		seg := make([][]int64, d)
		for j := range seg {
			seg[j] = make([]int64, 0, b[1]-b[0]+len(buffered))
		}
		from := b[0]
		flush := func(to int) {
			for j := range seg {
				seg[j] = append(seg[j], t.store.Column(j)[from:to]...)
			}
			from = to + 1
		}
		if cutting {
			for i, v := range t.store.Column(cut.dim)[b[0]:b[1]] {
				if cut.holds(v) {
					flush(b[0] + i)
					moved = append(moved, t.store.Row(b[0]+i, nil))
				}
			}
		}
		flush(b[1])
		for _, row := range buffered {
			if cut != nil && cut.holds(row[cut.dim]) {
				moved = append(moved, row)
				continue
			}
			for j, v := range row {
				seg[j] = append(seg[j], v)
				r.Lo[j] = min(r.Lo[j], v)
				r.Hi[j] = max(r.Hi[j], v)
			}
		}
		segStore, err := colstore.FromColumns(seg, t.store.Names())
		if err != nil {
			return nil, nil, fmt.Errorf("core: rewrite of region %d: %w", id, err)
		}
		rows := make([]int, segStore.NumRows())
		for i := range rows {
			rows[i] = i
		}

		var layout auggrid.Layout
		gridded := false
		if reoptimize {
			r.Queries = queries
			if len(queries) > 0 && len(rows) > 0 {
				opt, gcfg := t.cfg.regionOptimizer()
				layout, _ = auggrid.Optimize(segStore, rows, queries, opt, gcfg)
				gridded = true
			}
		} else if g := t.grids[id]; g != nil && len(rows) > 0 {
			layout, gridded = g.Layout(), true
		}
		if gridded {
			g, ordered, err := auggrid.Build(segStore, rows, layout)
			if err != nil {
				return nil, nil, fmt.Errorf("core: rebuild of region %d: %w", id, err)
			}
			nt.grids[id] = g
			for j, src := range seg {
				c := cols[j]
				for _, i := range ordered {
					c = append(c, src[i])
				}
				cols[j] = c
			}
		} else {
			for j := range cols {
				cols[j] = append(cols[j], seg[j]...)
			}
		}
		nt.bounds[id] = [2]int{start, len(cols[0])}
	}

	store, err := colstore.FromColumns(cols, t.store.Names())
	if err != nil {
		return nil, nil, fmt.Errorf("core: rewrite: %w", err)
	}
	nt.store = store
	for id, g := range nt.grids {
		if g != nil {
			// A verbatim region's grid shares the receiver's tables: its
			// rows keep their order, and only where they start moves.
			nt.grids[id] = g.Bind(store, nt.bounds[id][0])
		}
	}
	return nt, moved, nil
}

// cloneTree deep-copies nodes and regions, so a successor can widen its
// region boxes and replace its regions' query sets without the receiver
// observing either. Split values and query sets are shared (immutable).
// The build-only config of the source tree is not carried over, matching
// Load.
func cloneTree(tr *gridtree.Tree) *gridtree.Tree {
	regions := make([]*gridtree.Region, len(tr.Regions))
	for i, r := range tr.Regions {
		regions[i] = &gridtree.Region{
			Lo:      append([]int64(nil), r.Lo...),
			Hi:      append([]int64(nil), r.Hi...),
			Queries: r.Queries,
			ID:      r.ID,
		}
	}
	return &gridtree.Tree{
		Root:     cloneNode(tr.Root, regions),
		Regions:  regions,
		NumNodes: tr.NumNodes,
		Depth:    tr.Depth,
		NumTypes: tr.NumTypes,
	}
}

func cloneNode(nd *gridtree.Node, regions []*gridtree.Region) *gridtree.Node {
	if nd.Region != nil {
		return &gridtree.Node{Region: regions[nd.Region.ID]}
	}
	out := &gridtree.Node{SplitDim: nd.SplitDim, SplitVals: nd.SplitVals}
	out.Children = make([]*gridtree.Node, len(nd.Children))
	for i, c := range nd.Children {
		out.Children[i] = cloneNode(c, regions)
	}
	return out
}
