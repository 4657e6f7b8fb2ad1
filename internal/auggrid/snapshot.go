package auggrid

import (
	"fmt"

	"repro/internal/stats"
)

// GridSnapshot is the serializable form of a built Grid (§8 "Persistence":
// Tsunami's structures are not inherently in-memory-only; this snapshot
// plus the reordered column data fully reconstruct a queryable index).
// Offsets are stored relative to the grid's start so the snapshot is
// position-independent. The per-dim tables are keyed by dim, the form every
// snapshot has been written in; a Grid holds them as dense slices.
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
		offsets[i] = o - g.start
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

// FromSnapshot reconstructs a Grid. The caller must Finalize it against
// the (already correctly ordered) store at the grid's physical start.
func FromSnapshot(s GridSnapshot) (*Grid, error) {
	if err := s.Layout.Validate(); err != nil {
		return nil, err
	}
	d := len(s.Layout.Skeleton)
	g := &Grid{
		layout:    s.Layout.Clone(),
		n:         s.N,
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
	g.offsets = append([]int(nil), s.Offsets...)
	g.index()
	return g, nil
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
