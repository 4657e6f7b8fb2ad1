package auggrid

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/colstore"
	"repro/internal/stats"
)

// GridSnapshot is the serializable form of a built Grid (§8 "Persistence":
// Tsunami's structures are not inherently in-memory-only; this snapshot
// plus the reordered column data fully reconstruct a queryable index).
// Offsets is the grid's cell table as a Grid holds it, relative to the
// grid's start, so the snapshot is position-independent. It and the
// per-dim tables keep the types every snapshot has been written in: ints,
// and maps keyed by dim, where a Grid holds uint32 offsets and dense
// slices.
type GridSnapshot struct {
	Layout     Layout
	Bounds     map[int][]int64
	CondBounds map[int][][]int64
	Mappings   map[int]stats.LinReg
	DimLo      []int64
	DimHi      []int64
	Offsets    []int
	NOutliers  int
	N          int
}

// Snapshot extracts the grid's serializable state.
func (g *Grid) Snapshot() GridSnapshot {
	offsets := make([]int, len(g.offsets))
	for i, o := range g.offsets {
		offsets[i] = int(o)
	}
	s := GridSnapshot{
		Layout:     g.layout.Clone(),
		Bounds:     make(map[int][]int64),
		CondBounds: make(map[int][][]int64),
		Mappings:   make(map[int]stats.LinReg),
		DimLo:      g.dimLo,
		DimHi:      g.dimHi,
		Offsets:    offsets,
		NOutliers:  g.nOutliers,
		N:          g.n,
	}
	for j, strat := range g.layout.Skeleton {
		switch strat.Kind {
		case Independent:
			s.Bounds[j] = g.bounds[j]
		case Conditional:
			s.CondBounds[j] = g.condBounds[j]
		case Mapped:
			s.Mappings[j] = g.mappings[j]
		}
	}
	return s
}

// FromSnapshot reconstructs a Grid bound to st, its rows starting at
// physical offset start (see Bind): st must already hold the grid's rows
// in grid order. A snapshot whose tables a query could not safely walk is
// an error: a cell table that does not tile the grid's rows in order,
// boundary tables of the wrong shape or out of order, per-dim ranges
// missing a dim or inverted, rows outside st, or a sort-dim range that
// does not hold every cell's first and last sort value (the planner skips
// a grid whose range a sort filter misses, so a range too narrow would
// lose matching rows).
func FromSnapshot(s GridSnapshot, st *colstore.Store, start int) (*Grid, error) {
	if err := s.Layout.Validate(); err != nil {
		return nil, err
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	d := len(s.Layout.Skeleton)
	if st.NumDims() != d || start < 0 || start > st.NumRows()-s.N {
		return nil, fmt.Errorf("auggrid: snapshot's %d rows of %d dims do not fit at row %d of a %d-row, %d-dim table", s.N, d, start, st.NumRows(), st.NumDims())
	}
	if sd := s.Layout.SortDim; sd >= 0 {
		col := st.Column(sd)[start:]
		for c := 1; c < len(s.Offsets); c++ {
			if b, e := s.Offsets[c-1], s.Offsets[c]; b < e && (col[b] < s.DimLo[sd] || col[e-1] > s.DimHi[sd]) {
				return nil, fmt.Errorf("auggrid: snapshot's sort-dim range [%d, %d] misses cell %d's values [%d, %d]", s.DimLo[sd], s.DimHi[sd], c-1, col[b], col[e-1])
			}
		}
	}
	g := &Grid{
		layout:    s.Layout.Clone(),
		store:     st,
		start:     start,
		n:         s.N,
		fitted:    s.N,
		dimLo:     s.DimLo,
		dimHi:     s.DimHi,
		nOutliers: s.NOutliers,
	}
	var err error
	if g.bounds, err = dense(s.Bounds, d); err != nil {
		return nil, err
	}
	if g.condBounds, err = dense(s.CondBounds, d); err != nil {
		return nil, err
	}
	if g.mappings, err = dense(s.Mappings, d); err != nil {
		return nil, err
	}
	g.offsets = make([]uint32, len(s.Offsets))
	for i, o := range s.Offsets {
		g.offsets[i] = uint32(o)
	}
	g.index()
	return g, nil
}

// check verifies what FromSnapshot's grid relies on beyond a valid
// skeleton: a normalized partition count per dim, per-dim ranges with
// lo <= hi, boundary tables shaped by the layout, and a cell table that
// runs from 0 up to the inlier count, never decreasing.
func (s *GridSnapshot) check() error {
	l, d := &s.Layout, len(s.Layout.Skeleton)
	if len(s.DimLo) != d || len(s.DimHi) != d {
		return fmt.Errorf("auggrid: snapshot has %d/%d per-dim ranges for %d dims", len(s.DimLo), len(s.DimHi), d)
	}
	for j := range d {
		if s.DimLo[j] > s.DimHi[j] {
			return fmt.Errorf("auggrid: snapshot's per-dim range of dim %d is [%d, %d]", j, s.DimLo[j], s.DimHi[j])
		}
	}
	cells := 1
	for j, p := range l.P {
		if p < 1 || (p > 1 && (l.Skeleton[j].Kind == Mapped || j == l.SortDim)) {
			return fmt.Errorf("auggrid: snapshot has %d partitions in dim %d", p, j)
		}
		if cells > len(s.Offsets)/p {
			return fmt.Errorf("auggrid: snapshot has %d offsets for more than %d cells", len(s.Offsets), len(s.Offsets)-1)
		}
		cells *= p
	}
	for j, strat := range l.Skeleton {
		switch strat.Kind {
		case Independent:
			if err := checkBounds(s.Bounds[j], l.P[j]); err != nil {
				return fmt.Errorf("auggrid: snapshot dim %d: %w", j, err)
			}
		case Conditional:
			cb := s.CondBounds[j]
			if len(cb) != l.P[strat.Other] {
				return fmt.Errorf("auggrid: snapshot dim %d has %d conditional tables, base dim %d has %d partitions", j, len(cb), strat.Other, l.P[strat.Other])
			}
			for b, bounds := range cb {
				if err := checkBounds(bounds, l.P[j]); err != nil {
					return fmt.Errorf("auggrid: snapshot dim %d base partition %d: %w", j, b, err)
				}
			}
		}
	}
	if len(s.Offsets) != cells+1 {
		return fmt.Errorf("auggrid: snapshot has %d offsets for %d cells", len(s.Offsets), cells)
	}
	if s.N < 0 || s.N > math.MaxUint32 || s.NOutliers < 0 {
		return fmt.Errorf("auggrid: snapshot has %d rows, %d outliers", s.N, s.NOutliers)
	}
	if s.Offsets[0] != 0 {
		return fmt.Errorf("auggrid: snapshot's first offset is %d, want 0", s.Offsets[0])
	}
	for c := 1; c < len(s.Offsets); c++ {
		if s.Offsets[c] < s.Offsets[c-1] {
			return fmt.Errorf("auggrid: snapshot's offsets decrease at cell %d", c)
		}
	}
	if last := s.Offsets[cells]; last != s.N-s.NOutliers {
		return fmt.Errorf("auggrid: snapshot's offsets end at %d, want %d rows less %d outliers", last, s.N, s.NOutliers)
	}
	return nil
}

// checkBounds verifies one partitioning's boundaries: p+1 of them, in
// ascending order.
func checkBounds(bounds []int64, p int) error {
	if len(bounds) != p+1 {
		return fmt.Errorf("%d boundaries for %d partitions", len(bounds), p)
	}
	if !slices.IsSorted(bounds) {
		return fmt.Errorf("boundaries out of order")
	}
	return nil
}

// dense lays a snapshot's dim-keyed table out as a slice indexed by dim.
func dense[T any](m map[int]T, d int) ([]T, error) {
	out := make([]T, d)
	for j, v := range m {
		if j < 0 || j >= d {
			return nil, fmt.Errorf("auggrid: snapshot has a table entry for dim %d of %d", j, d)
		}
		out[j] = v
	}
	return out, nil
}
