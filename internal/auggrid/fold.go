package auggrid

import (
	"math"
	"slices"

	"repro/internal/cdfmodel"
	"repro/internal/colstore"
	"repro/internal/stats"
)

// relearnGrowth is how far a region's row count may move from the rows its
// grid was fitted over before a merge builds the grid again instead of
// folding into it: up past relearnGrowth times that many, or down (a range
// cut) below one relearnGrowth-th. A fold keeps the fitted boundaries, so
// when inserts shift the data's distribution the cells they land in fill
// up, and when a cut takes a range away its partitions stand empty. It was
// chosen from a sweep (a 200k-row Taxi index grown to 4x in 16 384-row
// merges; see ARCHITECTURE.md): with rows drawn like the table's a folded
// grid scans as a rebuilt one does at any growth, and with time-shifted
// rows 2 kept scanned-per-match at 4.3 (2x growth) and 5.8 (4x) against
// 5.7 and 9.2 never re-learning, for 1.2 s of merging against 0.95 s never
// re-learning and 2.1 s at 1.25. Cuts of the top half or three quarters
// of a dim's values from 200k-row Taxi and TPC-H indexes read up to 1.33x
// the rebuilt grids' scanned-per-match when folded, and within 1.05x with
// the shrink bound.
const relearnGrowth = 2

// Fold merges a region's buffered rows into its grid without re-fitting
// it (§8 merge): g keeps its boundaries, conditional boundaries and
// mappings, only the new rows are placed, and each cell's old and new
// rows are merge-walked into the successor's columns. g must be bound; it
// is never written.
//
// The successor holds g's rows less those at the positions in drop
// (relative to g's start, ascending: a range cut's leaving rows), plus the
// rows of add, which are ordered by (cell, sort value, position in add)
// and follow the old rows they tie with. Fold appends the successor's
// rows in grid order to cols, one slice per dim, and returns the
// successor, unbound. Where a new row falls outside g's tables they are
// widened, in copies: the first and last boundary of its partitions, the
// per-dim range, a mapping's error band. With an outlier buffer a row
// outside a band joins the buffer instead. Every row then lies inside
// each of its partition slabs [bounds[k], bounds[k+1]), which the exact
// ranges of a plan rely on.
//
// Fold returns nil and appends nothing when the region is to be built
// again: when it has grown past relearnGrowth times the rows g was fitted
// over or shrunk below one relearnGrowth-th of them, or when new outliers
// would take the buffer past its OutlierFrac share of the rows.
func (g *Grid) Fold(drop []int, add *colstore.Store, cols [][]int64) *Grid {
	k := add.NumRows()
	n := g.n - len(drop) + k
	if n > relearnGrowth*g.fitted || relearnGrowth*n < g.fitted || n > math.MaxUint32 {
		return nil // away from its fit, or past what Build allows a grid
	}
	ng := *g
	ng.store, ng.start, ng.n = nil, 0, n

	out, newOut := ng.foldMappings(add)
	cells := g.NumCells()
	keptOut := g.nOutliers
	for _, r := range drop {
		if r >= int(g.offsets[cells]) {
			keptOut--
		}
	}
	if newOut > 0 && keptOut+newOut > int(g.layout.OutlierFrac*float64(n)) {
		return nil
	}
	ng.nOutliers = keptOut + newOut
	ng.widen(add, out)

	// The new rows in successor order: the inliers in Build's grid order
	// (cell, sort value, position), newOffsets[c] the first of cell c,
	// then the outliers in arrival order.
	var inliers, outliers []int
	for i := 0; i < k; i++ {
		if out != nil && out[i] {
			outliers = append(outliers, i)
		} else {
			inliers = append(inliers, i)
		}
	}
	cellOf := make([]int, len(inliers))
	for x, i := range inliers {
		cellOf[x] = ng.cellOfRow(add, i)
	}
	sd := g.layout.SortDim
	var addSort []int64
	if sd >= 0 {
		addSort = add.Column(sd)
	}
	order, newOffsets := orderCells(inliers, cellOf, addSort, cells)
	order = append(order, outliers...)
	newCols := make([][]int64, len(cols))
	for j := range newCols {
		newCols[j] = gather(add.Column(j), order)
	}

	// Merge-walk each cell: a new row goes after the old rows whose sort
	// value is at most its own, so ties keep the old row first.
	var oldSort []int64
	if sd >= 0 {
		oldSort = g.store.Column(sd)[g.start : g.start+g.n]
	}
	w := foldWalk{drop: drop}
	ng.offsets = make([]uint32, cells+1)
	for c := 0; c < cells; c++ {
		ng.offsets[c] = uint32(w.rows)
		s, e := int(g.offsets[c]), int(g.offsets[c+1])
		for i := int(newOffsets[c]); i < int(newOffsets[c+1]); i++ {
			at := e
			if sd >= 0 {
				at = gallopGT(oldSort, s, e, newCols[sd][i])
			}
			w.old(s, at)
			s = at
			w.take(piece{at: i, n: 1, fresh: 1})
		}
		w.old(s, e)
	}
	ng.offsets[cells] = uint32(w.rows)
	w.old(int(g.offsets[cells]), g.n)
	w.take(piece{at: len(inliers), n: len(outliers), fresh: 1})

	base := len(cols[0])
	for j := range cols {
		src := [2][]int64{g.store.Column(j)[g.start : g.start+g.n], newCols[j]}
		c := slices.Grow(cols[j], n)[:base+n]
		dst := c[base:]
		for _, p := range w.pieces {
			if p.n == 1 {
				dst[0] = src[p.fresh][p.at]
			} else {
				copy(dst, src[p.fresh][p.at:p.at+p.n])
			}
			dst = dst[p.n:]
		}
		cols[j] = c
	}

	// The per-dim ranges are the successor's exact minimum and maximum: a
	// cut may have taken an old extreme away, so they are read off the
	// rows written; otherwise the new rows only widen them.
	ng.dimLo, ng.dimHi = slices.Clone(g.dimLo), slices.Clone(g.dimHi)
	for j := range cols {
		switch {
		case len(drop) > 0:
			ng.dimLo[j], ng.dimHi[j] = minMax(cols[j][base:])
		case k > 0:
			lo, hi := add.MinMax(j)
			ng.dimLo[j], ng.dimHi[j] = min(ng.dimLo[j], lo), max(ng.dimHi[j], hi)
		}
	}
	return &ng
}

// gallopGT is searchGT over s[lo:hi] for a v that usually lies near lo: it
// doubles a step from lo until it passes v, then searches the last step,
// so a merge-walk that places many new rows in a cell reads the cell's
// sort values nearly in order.
func gallopGT(s []int64, lo, hi int, v int64) int {
	step := 1
	for lo+step < hi && s[lo+step-1] <= v {
		lo += step
		step *= 2
	}
	return searchGT(s, lo, min(lo+step, hi), v)
}

// foldMappings checks the new rows of add against each mapping's error
// band. A row outside a band is marked in out when the layout keeps an
// outlier buffer; otherwise the band is widened to the row's residual, in
// a copy of g's mappings. It returns the marks (nil when none) and how
// many rows they mark.
func (g *Grid) foldMappings(add *colstore.Store) (out []bool, marked int) {
	var mappings []stats.LinReg
	for j, s := range g.layout.Skeleton {
		if s.Kind != Mapped {
			continue
		}
		lr := g.mappings[j]
		x, y := add.Column(j), add.Column(s.Other)
		for i := range x {
			r := float64(y[i]) - lr.Predict(float64(x[i]))
			if r >= lr.ErrLo && r <= lr.ErrHi {
				continue
			}
			if g.layout.OutlierFrac > 0 {
				if out == nil {
					out = make([]bool, len(x))
				}
				if !out[i] {
					out[i] = true
					marked++
				}
				continue
			}
			if r < lr.ErrLo {
				lr.ErrLo = r
			}
			if r > lr.ErrHi {
				lr.ErrHi = r
			}
		}
		if lr != g.mappings[j] {
			if mappings == nil {
				mappings = slices.Clone(g.mappings)
			}
			mappings[j] = lr
		}
	}
	if mappings != nil {
		g.mappings = mappings
	}
	return out, marked
}

// widen moves g's outer boundaries out to the new rows of add: an
// independent dim's over every new row, as Build fits them over every
// row, and a conditional dim's in the base partition of each new inlier
// (out marks the outliers; nil marks none). Only the first and last
// boundary move, and only outward, so no row already placed changes
// partition: the search clamps a value below the first boundary into the
// first partition and one at or past the last into the last, before
// widening and after. Tables are copied before they are written.
func (g *Grid) widen(add *colstore.Store, out []bool) {
	if add.NumRows() == 0 {
		return
	}
	var bounds [][]int64
	for j, s := range g.layout.Skeleton {
		if s.Kind != Independent {
			continue
		}
		lo, hi := add.MinMax(j)
		if first, last, ok := widened(g.bounds[j], lo, hi); ok {
			if bounds == nil {
				bounds = slices.Clone(g.bounds)
			}
			b := slices.Clone(g.bounds[j])
			b[0], b[len(b)-1] = first, last
			bounds[j] = b
		}
	}
	if bounds != nil {
		g.bounds = bounds
	}

	var condBounds [][][]int64
	for j, s := range g.layout.Skeleton {
		if s.Kind != Conditional {
			continue
		}
		cb := g.condBounds[j]
		var copied []bool // non-nil once cb is a copy; then per partition
		baseCol, col := add.Column(s.Other), add.Column(j)
		for i, v := range col {
			if out != nil && out[i] {
				continue
			}
			bp := g.partIndep(s.Other, baseCol[i])
			first, last, ok := widened(cb[bp], v, v)
			if !ok {
				continue
			}
			if copied == nil {
				cb, copied = slices.Clone(cb), make([]bool, len(cb))
			}
			if !copied[bp] {
				cb[bp], copied[bp] = slices.Clone(cb[bp]), true
			}
			cb[bp][0], cb[bp][len(cb[bp])-1] = first, last
		}
		if copied != nil {
			if condBounds == nil {
				condBounds = slices.Clone(g.condBounds)
			}
			condBounds[j] = cb
		}
	}
	if condBounds != nil {
		g.condBounds = condBounds
	}
}

// widened returns the first and last of boundaries b moved out to hold
// [lo, hi], and whether either moved.
func widened(b []int64, lo, hi int64) (first, last int64, moved bool) {
	p := len(b) - 1
	first, last = min(b[0], lo), max(b[p], cdfmodel.Above(hi))
	return first, last, first != b[0] || last != b[p]
}

// A piece is a run of the successor's rows: n of the old grid's rows from
// position at (fresh 0), or n new rows from position at of their
// successor order (fresh 1).
type piece struct {
	at, n int
	fresh int
}

// foldWalk collects a fold's pieces in the successor's row order, leaving
// out the dropped old rows and joining a piece onto the previous one it
// continues.
type foldWalk struct {
	pieces []piece
	drop   []int // the dropped old positions not yet passed
	rows   int   // rows taken so far
}

// old takes the old rows [a, b), less the dropped ones. The walk takes old
// rows in ascending position, so the drops are met in order.
func (w *foldWalk) old(a, b int) {
	for len(w.drop) > 0 && w.drop[0] < b {
		w.take(piece{at: a, n: w.drop[0] - a})
		a, w.drop = w.drop[0]+1, w.drop[1:]
	}
	w.take(piece{at: a, n: b - a})
}

func (w *foldWalk) take(p piece) {
	if p.n <= 0 {
		return
	}
	w.rows += p.n
	if last := len(w.pieces) - 1; last >= 0 {
		if q := &w.pieces[last]; q.fresh == p.fresh && q.at+q.n == p.at {
			q.n += p.n
			return
		}
	}
	w.pieces = append(w.pieces, p)
}
