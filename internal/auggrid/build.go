package auggrid

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cdfmodel"
	"repro/internal/colstore"
	"repro/internal/stats"
)

// Grid is a built Augmented Grid over a contiguous physical range of a
// column store. Construction is two-phase so a parent structure (the Grid
// Tree) can compose multiple grids into one global clustered layout:
//
//  1. Build computes all layout structures and returns the region's rows in
//     grid order; the caller concatenates row orders, reorders the store.
//  2. Bind returns the grid bound to the reordered store at its start
//     offset, in O(1): the cell table is relative to the grid's start.
//
// A bound Grid is immutable: all per-query state lives in the ExecContext
// passed to PlanRanges, so one Grid serves any number of concurrent
// readers with no cloning (provided the underlying store is not mutated
// while readers are active).
type Grid struct {
	layout Layout
	store  *colstore.Store
	start  int // physical offset of this grid's first row
	n      int // number of rows

	// gridDims is the row-major cell ordering of the grid's dims, arranged
	// so every conditional dim comes after its base (bases are independent,
	// so independents-then-conditionals suffices). This lets query
	// enumeration fix base partitions before dependents while walking in
	// stride order.
	gridDims []int
	strides  []int // stride per grid dim (aligned with gridDims)
	posOf    []int // dim -> position in gridDims, -1 if not a grid dim

	// Per-dim tables, indexed by dim. bounds[d] is an independent dim's
	// partition boundaries, len P[d]+1; condBounds[d] a conditional dim's
	// per-base-partition boundaries, [pBase][P[d]+1]; both nil for dims of
	// other kinds. mappings[d] is a mapped dim's functional mapping
	// predicting the target value from this dim's value (zero otherwise).
	bounds     [][]int64
	condBounds [][][]int64
	mappings   []stats.LinReg
	// Observed per-dim min/max, used to clamp unbounded filters before
	// applying functional mappings.
	dimLo, dimHi []int64

	// offsets[c] is the start of cell c relative to the grid's first row,
	// so the physical start is start+offsets[c]; len NumCells+1. Offsets
	// cover only inlier rows; the nOutliers rows diverted by robust
	// functional mappings (§8) sit immediately after the last cell and are
	// scanned by every query. Four bytes an entry bound a grid to
	// math.MaxUint32 rows, which Build enforces.
	offsets   []uint32
	nOutliers int

	// fitted is how many rows the boundaries and mappings were fitted
	// over: the built row count, or a loaded grid's row count. A fold
	// carries it, so a region that grows or shrinks away from it by
	// relearnGrowth is built again (see Fold). It is not persisted.
	fitted int
}

// Build computes the grid structures for layout over the given rows of st
// (st not yet reordered) and returns the rows sorted into grid order:
// by cell id, then by the sort dimension within each cell, then by position
// in rows.
func Build(st *colstore.Store, rows []int, layout Layout) (*Grid, []int, error) {
	return build(st, rows, layout, nil)
}

// build is Build, or, given o, the Evaluator's pricing build: st is then
// o's sample and rows is every sample row, 0..n-1, in order. The two share
// boundaries, mappings and outliers; the pricing build reads independent
// boundaries off o's sorted columns and leaves conditional groups,
// partitions and the cell order to sampleOrder.place, where Build sorts
// and binary-searches.
func build(st *colstore.Store, rows []int, layout Layout, o *sampleOrder) (*Grid, []int, error) {
	if err := layout.Validate(); err != nil {
		return nil, nil, err
	}
	if len(layout.Skeleton) != st.NumDims() {
		return nil, nil, fmt.Errorf("auggrid: layout has %d dims, store has %d", len(layout.Skeleton), st.NumDims())
	}
	if len(rows) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("auggrid: %d rows exceed a grid's %d", len(rows), uint64(math.MaxUint32))
	}
	d := st.NumDims()
	g := &Grid{
		layout:     layout.Clone(),
		n:          len(rows),
		fitted:     len(rows),
		bounds:     make([][]int64, d),
		condBounds: make([][][]int64, d),
		mappings:   make([]stats.LinReg, d),
	}
	g.layout.normalize()
	g.index()

	g.dimLo = make([]int64, d)
	g.dimHi = make([]int64, d)
	for j := 0; j < d; j++ {
		lo, hi := minMaxRows(st.Column(j), rows)
		g.dimLo[j], g.dimHi[j] = lo, hi
	}

	numCells := g.layout.NumCells()

	// Phase 1: independent boundaries and functional mappings. With
	// OutlierFrac > 0 the mappings are fit robustly and the rows outside
	// the trimmed error band are diverted to the outlier buffer (§8).
	var outlier []bool
	for j := 0; j < d; j++ {
		switch g.layout.Skeleton[j].Kind {
		case Independent:
			p := g.layout.P[j]
			if p == 1 && len(rows) > 0 {
				// One partition spans the domain: its boundaries are the
				// minimum and one past the maximum, no CDF needed.
				g.bounds[j] = []int64{g.dimLo[j], cdfmodel.Above(g.dimHi[j])}
				continue
			}
			var vals []int64
			if o != nil {
				vals = o.sorted[j]
			} else {
				vals = gather(st.Column(j), rows)
				slices.Sort(vals)
			}
			m := cdfmodel.NewSortedSample(vals, sampleFor(len(rows), p))
			g.bounds[j] = cdfmodel.Boundaries(m, p)
		case Mapped:
			target := g.layout.Skeleton[j].Other
			x := gather(st.Column(j), rows)
			y := gather(st.Column(target), rows)
			lr, out := robustFit(x, y, g.layout.OutlierFrac)
			g.mappings[j] = lr
			for i, isOut := range out {
				if isOut {
					if outlier == nil {
						outlier = make([]bool, len(rows))
					}
					outlier[i] = true
				}
			}
		}
	}
	inlierRows := rows
	var outlierRows []int
	if outlier != nil {
		inlierRows = make([]int, 0, len(rows))
		for i, r := range rows {
			if outlier[i] {
				outlierRows = append(outlierRows, r)
			} else {
				inlierRows = append(inlierRows, r)
			}
		}
		g.nOutliers = len(outlierRows)
	}
	if o != nil {
		return g, o.place(g, rows, numCells, outlier, outlierRows), nil
	}

	// Phase 2: conditional boundaries (bases are Independent, so their
	// boundaries exist now), from each base partition's sorted values.
	for j := 0; j < d; j++ {
		if g.layout.Skeleton[j].Kind != Conditional {
			continue
		}
		base := g.layout.Skeleton[j].Other
		groups := make([][]int64, g.layout.P[base])
		baseCol := st.Column(base)
		col := st.Column(j)
		for _, r := range inlierRows {
			b := g.partIndep(base, baseCol[r])
			groups[b] = append(groups[b], col[r])
		}
		for _, vals := range groups {
			slices.Sort(vals)
		}
		g.condBounds[j] = condBoundaries(groups, g.layout.P[j])
	}

	return g, g.cluster(st, inlierRows, outlierRows), nil
}

// cluster is Build's phase 3, run once g's boundaries and mappings are
// set: it assigns the inlier rows their cells, orders them (cell-major,
// sort dim within cells, then position), sets the offsets, and returns
// the rows in grid order with the outlier buffer appended.
func (g *Grid) cluster(st *colstore.Store, inlierRows, outlierRows []int) []int {
	cells := make([]int, len(inlierRows))
	for i, r := range inlierRows {
		cells[i] = g.cellOfRow(st, r)
	}
	var sortCol []int64
	if g.layout.SortDim >= 0 {
		sortCol = st.Column(g.layout.SortDim)
	}
	orderedRows, offsets := orderCells(inlierRows, cells, sortCol, g.layout.NumCells())
	g.offsets = offsets
	return append(orderedRows, outlierRows...)
}

// condBoundaries returns a conditional dim's p+1 boundaries in each base
// partition, given the partition's values in ascending order.
func condBoundaries(groups [][]int64, p int) [][]int64 {
	cb := make([][]int64, len(groups))
	for b, vals := range groups {
		if len(vals) == 0 {
			// Empty base partition: degenerate single-point boundaries.
			cb[b] = make([]int64, p+1)
			continue
		}
		m := cdfmodel.NewSortedSample(vals, sampleFor(len(vals), p))
		cb[b] = cdfmodel.Boundaries(m, p)
	}
	return cb
}

// sampleOrder is an Evaluator's fixed sample ordered once per column, and
// the scratch its pricing build reuses for every candidate: each grid it
// builds holds offsets that the next candidate overwrites.
type sampleOrder struct {
	order  [][]int   // order[j]: the sample rows by (column j value, row)
	sorted [][]int64 // sorted[j][k]: column j's value at row order[j][k]
	none   []bool    // all false: the outlier flags of a layout without any

	// Per-candidate scratch.
	parts   [][]int // parts[j][r]: row r's partition in grid dim j
	cells   []int   // cells[r]: row r's cell
	vals    []int64 // one conditional dim's inlier values, grouped by base partition
	groups  [][]int64
	start   []int // start[b]: base partition b's first value in vals
	cursor  []int // per base partition: a fill position, then a boundary cursor
	offsets []uint32
	next    []uint32
	ordered []int
}

// newSampleOrder orders each column of the sample st by (value, row).
func newSampleOrder(st *colstore.Store) *sampleOrder {
	n, d := st.NumRows(), st.NumDims()
	o := &sampleOrder{
		order:  make([][]int, d),
		sorted: make([][]int64, d),
		parts:  make([][]int, d),
		none:   make([]bool, n),
	}
	taken := make([]int, n)
	for j := 0; j < d; j++ {
		col := st.Column(j)
		sorted := slices.Clone(col)
		slices.Sort(sorted)
		// Each row takes the first free slot of its value's run, so ties
		// stay in row order.
		order := make([]int, n)
		clear(taken)
		for r, v := range col {
			i, _ := slices.BinarySearch(sorted, v)
			order[i+taken[i]] = r
			taken[i]++
		}
		o.order[j], o.sorted[j] = order, sorted
		o.parts[j] = make([]int, n)
	}
	return o
}

// place is the pricing build's phases 2 and 3. Given g with its
// independent boundaries, mappings and outliers set over the sample rows
// (0..n-1), it fills the conditional boundaries and the offsets and
// returns the rows in grid order, with linear passes over the row orders.
// It matches Build because a row order is a stable sort by value: rows
// appended in it come out sorted, a cursor moving up ascending boundaries
// stops where the binary search lands, and a stable counting sort by cell
// over the sort dim's order leaves each cell ordered by (value, row).
func (o *sampleOrder) place(g *Grid, rows []int, numCells int, outlier []bool, outlierRows []int) []int {
	l, n := &g.layout, g.n
	if outlier == nil {
		outlier = o.none
	}

	// Partitions, independents first (gridDims puts every base before its
	// dependents). An independent dim's cursor walks its boundaries; a
	// conditional dim walks one cursor per base partition, over the
	// boundaries taken from that partition's group.
	for _, j := range g.gridDims {
		part, sorted := o.parts[j], o.sorted[j]
		p := l.P[j]
		if l.Skeleton[j].Kind == Independent {
			b, k := g.bounds[j], 0
			for i, r := range o.order[j] {
				for k < len(b) && b[k] <= sorted[i] {
					k++
				}
				part[r] = clampPart(k-1, p)
			}
			continue
		}
		basePart := o.parts[l.Skeleton[j].Other]
		g.condBounds[j] = condBoundaries(o.group(j, basePart, l.P[l.Skeleton[j].Other], outlier), p)
		cursor := o.cursor
		clear(cursor)
		for i, r := range o.order[j] {
			if outlier[r] {
				continue
			}
			bp := basePart[r]
			b, k := g.condBounds[j][bp], cursor[bp]
			for k < len(b) && b[k] <= sorted[i] {
				k++
			}
			cursor[bp] = k
			part[r] = clampPart(k-1, p)
		}
	}

	o.cells = scratch(o.cells, n)
	cells := o.cells
	clear(cells)
	for k, j := range g.gridDims {
		if s := g.strides[k]; l.P[j] > 1 {
			for r, pt := range o.parts[j] {
				cells[r] += pt * s
			}
		}
	}

	// A stable counting sort by cell, over the sort dim's row order when
	// there is one, else over the rows in order; outliers go last.
	o.offsets = scratch(o.offsets, numCells+1)
	offsets := o.offsets
	clear(offsets)
	for r, c := range cells {
		if !outlier[r] {
			offsets[c+1]++
		}
	}
	for c := 1; c < len(offsets); c++ {
		offsets[c] += offsets[c-1]
	}
	o.next = scratch(o.next, numCells)
	next := o.next
	copy(next, offsets)
	walk := rows
	if l.SortDim >= 0 {
		walk = o.order[l.SortDim]
	}
	o.ordered = scratch(o.ordered, n)
	ordered := o.ordered
	for _, r := range walk {
		if !outlier[r] {
			c := cells[r]
			ordered[next[c]] = r
			next[c]++
		}
	}
	copy(ordered[offsets[numCells]:], outlierRows)
	g.offsets = offsets
	return ordered
}

// group returns conditional dim j's inlier values split by base partition
// (basePart[r] is row r's), each group in ascending order because the rows
// are taken in j's row order. It leaves o.cursor sized to pBase.
func (o *sampleOrder) group(j int, basePart []int, pBase int, outlier []bool) [][]int64 {
	o.start = scratch(o.start, pBase+1)
	start := o.start
	clear(start)
	for r, b := range basePart {
		if !outlier[r] {
			start[b+1]++
		}
	}
	for b := 1; b <= pBase; b++ {
		start[b] += start[b-1]
	}
	o.cursor = scratch(o.cursor, pBase)
	fill := o.cursor
	copy(fill, start)
	o.vals = scratch(o.vals, start[pBase])
	sorted := o.sorted[j]
	for i, r := range o.order[j] {
		if !outlier[r] {
			b := basePart[r]
			o.vals[fill[b]] = sorted[i]
			fill[b]++
		}
	}
	o.groups = scratch(o.groups, pBase)
	for b := range o.groups {
		o.groups[b] = o.vals[start[b]:start[b+1]]
	}
	return o.groups
}

// scratch returns s resized to n, reallocating only when it is too short;
// what it holds is unspecified.
func scratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// orderCells returns rows in grid order and the start of each of the
// numCells cells in it (plus the end): rows[i] belongs to cell cells[i],
// and within a cell rows go by ascending sortCol value (no order when
// sortCol is nil), then by position i. That is the order a stable sort on
// (cell, value) gives, reached by a counting sort on the cell ids and a
// sort of each cell's (value, position) keys.
func orderCells(rows, cells []int, sortCol []int64, numCells int) (ordered []int, offsets []uint32) {
	offsets = make([]uint32, numCells+1)
	for _, c := range cells {
		offsets[c+1]++
	}
	for c := 1; c < len(offsets); c++ {
		offsets[c] += offsets[c-1]
	}
	next := slices.Clone(offsets[:len(offsets)-1])
	ordered = make([]int, len(rows))
	if sortCol == nil {
		for i, c := range cells {
			ordered[next[c]] = rows[i]
			next[c]++
		}
		return ordered, offsets
	}
	keys := make([]cellKey, len(rows))
	for i, c := range cells {
		keys[next[c]] = cellKey{v: sortCol[rows[i]], i: i}
		next[c]++
	}
	for c := 0; c+1 < len(offsets); c++ {
		if cell := keys[offsets[c]:offsets[c+1]]; len(cell) > 1 {
			slices.SortFunc(cell, cellKey.compare)
		}
	}
	for k, key := range keys {
		ordered[k] = rows[key.i]
	}
	return ordered, offsets
}

// cellKey is one row of a cell being sorted: its sort-dim value and its
// position in the input, which breaks ties so the order is total.
type cellKey struct {
	v int64
	i int
}

func (a cellKey) compare(b cellKey) int {
	if a.v != b.v {
		return cmp.Compare(a.v, b.v)
	}
	return a.i - b.i
}

// Bind returns a copy of g bound to st, its rows starting at physical
// offset start. Rows [start, start+n) of st must be g's rows in the order
// Build returned them. The copy shares every table with g, which is left
// as it was: a freshly built grid is bound once, and a merge carries an
// untouched region's grid into a rewritten store without re-sorting the
// region while g keeps serving its own store.
func (g *Grid) Bind(st *colstore.Store, start int) *Grid {
	ng := *g
	ng.store, ng.start = st, start
	return &ng
}

// index derives the cell-id structures from the layout: the grid dims in
// stride order, each dim's position among them, and the row-major strides.
func (g *Grid) index() {
	g.gridDims = gridDimsTopological(g.layout)
	g.posOf = make([]int, len(g.layout.Skeleton))
	for j := range g.posOf {
		g.posOf[j] = -1
	}
	for k, j := range g.gridDims {
		g.posOf[j] = k
	}
	g.strides = make([]int, len(g.gridDims))
	stride := 1
	for i := len(g.gridDims) - 1; i >= 0; i-- {
		g.strides[i] = stride
		stride *= g.layout.P[g.gridDims[i]]
	}
}

// gridDimsTopological returns the grid dims (not mapped, not the sort dim)
// ordered with independents first, then conditionals, so bases always
// precede their dependents in stride order.
func gridDimsTopological(l Layout) []int {
	var out []int
	for i, st := range l.Skeleton {
		if st.Kind == Independent && i != l.SortDim {
			out = append(out, i)
		}
	}
	for i, st := range l.Skeleton {
		if st.Kind == Conditional && i != l.SortDim {
			out = append(out, i)
		}
	}
	return out
}

// sampleFor picks a CDF sample size: enough resolution for p partitions
// without sorting more than needed.
func sampleFor(n, p int) int {
	s := 16 * p
	if s < 1024 {
		s = 1024
	}
	if s >= n {
		return 0 // exact
	}
	return s
}

func gather(col []int64, rows []int) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = col[r]
	}
	return out
}

func minMaxRows(col []int64, rows []int) (int64, int64) {
	if len(rows) == 0 {
		return 0, 0
	}
	lo, hi := col[rows[0]], col[rows[0]]
	for _, r := range rows[1:] {
		v := col[r]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// partIndep returns the partition of value v in independent dim j by binary
// search over the boundary array, clamped to [0, P[j]-1].
func (g *Grid) partIndep(j int, v int64) int {
	b := g.bounds[j]
	return clampPart(searchGT(b, 0, len(b), v)-1, g.layout.P[j])
}

// partCond returns the partition of value v in conditional dim j given the
// base partition bp.
func (g *Grid) partCond(j, bp int, v int64) int {
	b := g.condBounds[j][bp]
	return clampPart(searchGT(b, 0, len(b), v)-1, g.layout.P[j])
}

// searchGT returns the first index i in [lo, hi) with s[i] > v, or hi when
// there is none; s[lo:hi] must be ascending. It is the package's one binary
// search: a plain loop, so a hot caller pays no closure call per probe.
func searchGT(s []int64, lo, hi int, v int64) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] > v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

func clampPart(i, p int) int {
	if i < 0 {
		return 0
	}
	if i >= p {
		return p - 1
	}
	return i
}

// cellOfRow computes the row-major cell id of store row r.
func (g *Grid) cellOfRow(st *colstore.Store, r int) int {
	cell := 0
	for k, j := range g.gridDims {
		var idx int
		switch g.layout.Skeleton[j].Kind {
		case Independent:
			idx = g.partIndep(j, st.Value(r, j))
		case Conditional:
			base := g.layout.Skeleton[j].Other
			bp := g.partIndep(base, st.Value(r, base))
			idx = g.partCond(j, bp, st.Value(r, j))
		}
		cell += idx * g.strides[k]
	}
	return cell
}

// Layout returns the grid's layout.
func (g *Grid) Layout() Layout { return g.layout }

// NumCells returns the total number of grid cells.
func (g *Grid) NumCells() int { return len(g.offsets) - 1 }

// NumRows returns the number of rows the grid indexes.
func (g *Grid) NumRows() int { return g.n }

// Start returns the grid's physical start offset.
func (g *Grid) Start() int { return g.start }

// SizeBytes reports the structure footprint: the cell lookup table of
// 4-byte offsets (which dominates, §6.3), partition boundaries,
// conditional CDF tables, the four floats of each functional mapping, and
// the per-dim observed min and max.
func (g *Grid) SizeBytes() uint64 {
	size := uint64(len(g.offsets)) * 4 // lookup table
	for _, b := range g.bounds {
		size += uint64(len(b)) * 8
	}
	for _, cb := range g.condBounds {
		for _, b := range cb {
			size += uint64(len(b)) * 8
		}
	}
	fms, _ := g.layout.Skeleton.CountKinds()
	size += uint64(fms) * 32 // slope, intercept, el, eu (§5.2.1)
	size += uint64(len(g.dimLo)) * 16
	return size
}
