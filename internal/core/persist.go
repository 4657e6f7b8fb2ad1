package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/gridtree"
)

// Persistence (§8): the paper notes Tsunami's techniques "are not
// restricted to in-memory scenarios". Save serializes the full index — the
// clustered column data, the Grid Tree, every region grid, and any
// inserted-but-unmerged delta rows — with encoding/gob; Load reconstructs
// a queryable index without re-optimizing. Save never mutates the index,
// so a live snapshot can be taken while the index is serving readers
// (LiveStore's periodic crash-recovery snapshots rely on this).

// snapNode mirrors the Grid Tree without region payloads.
type snapNode struct {
	SplitDim  int
	SplitVals []int64
	Children  []*snapNode
	RegionID  int // -1 for internal nodes
}

// snapRegion carries the per-region metadata needed after load.
type snapRegion struct {
	Lo, Hi []int64
}

// snapshot is the on-disk form of a Tsunami index.
type snapshot struct {
	FormatVersion int
	Variant       int
	Names         []string
	Cols          [][]int64
	Root          *snapNode
	Regions       []snapRegion
	NumNodes      int
	Depth         int
	NumTypes      int
	Bounds        [][2]int
	Grids         map[int]auggrid.GridSnapshot // region id -> grid; absent = scan region
	// Deltas carries inserted-but-unmerged rows per region (format v2+;
	// v1 snapshots were always merged before saving, so the field decodes
	// as empty).
	Deltas map[int][][]int64
}

const formatVersion = 2

// Save writes the index to w, including any buffered-but-unmerged inserts
// as delta rows. Save does not mutate the index: it only reads, so it is
// safe while t serves concurrent readers (but must be externally
// synchronized with writers, like every read).
func (t *Tsunami) Save(w io.Writer) error {
	s := snapshot{
		FormatVersion: formatVersion,
		Variant:       int(t.cfg.Variant),
		Names:         t.store.Names(),
		NumNodes:      t.tree.NumNodes,
		Depth:         t.tree.Depth,
		NumTypes:      t.tree.NumTypes,
		Bounds:        t.bounds,
	}
	s.Cols = make([][]int64, t.store.NumDims())
	for j := range s.Cols {
		s.Cols[j] = t.store.Column(j)
	}
	s.Regions = make([]snapRegion, len(t.tree.Regions))
	s.Grids = make(map[int]auggrid.GridSnapshot)
	for i, r := range t.tree.Regions {
		s.Regions[i] = snapRegion{Lo: r.Lo, Hi: r.Hi}
		if g := t.grids[i]; g != nil {
			s.Grids[i] = g.Snapshot()
		}
	}
	if t.numBuffered > 0 {
		s.Deltas = make(map[int][][]int64, len(t.deltas))
		for id, d := range t.deltas {
			s.Deltas[id] = d.rows
		}
	}
	s.Root = toSnapNode(t.tree.Root)
	return gob.NewEncoder(w).Encode(&s)
}

func toSnapNode(nd *gridtree.Node) *snapNode {
	out := &snapNode{RegionID: -1}
	if nd.Region != nil {
		out.RegionID = nd.Region.ID
		return out
	}
	out.SplitDim = nd.SplitDim
	out.SplitVals = nd.SplitVals
	out.Children = make([]*snapNode, len(nd.Children))
	for i, c := range nd.Children {
		out.Children[i] = toSnapNode(c)
	}
	return out
}

// Load reconstructs an index written by Save. A snapshot whose tables do
// not fit together is an error naming the region or node at fault, never
// an index that fails on its first query: the region bounds must tile the
// table in order, every region box and grid must span the table's dims,
// every grid must index exactly its region's rows through a sound cell
// table (auggrid.FromSnapshot), and every tree node must split a real dim
// into one child per split value plus one.
func Load(r io.Reader) (*Tsunami, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if s.FormatVersion < 1 || s.FormatVersion > formatVersion {
		return nil, fmt.Errorf("core: load: format version %d, want 1..%d", s.FormatVersion, formatVersion)
	}
	store, err := colstore.FromColumns(s.Cols, s.Names)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if len(s.Bounds) != len(s.Regions) {
		return nil, fmt.Errorf("core: load: %d region bounds for %d regions", len(s.Bounds), len(s.Regions))
	}
	d, next := store.NumDims(), 0
	for i, b := range s.Bounds {
		if b[0] != next || b[1] < b[0] {
			return nil, fmt.Errorf("core: load: region %d spans rows [%d, %d), want it to start at %d", i, b[0], b[1], next)
		}
		next = b[1]
	}
	if next != store.NumRows() {
		return nil, fmt.Errorf("core: load: regions cover %d of %d rows", next, store.NumRows())
	}

	regions := make([]*gridtree.Region, len(s.Regions))
	for i, sr := range s.Regions {
		if len(sr.Lo) != d || len(sr.Hi) != d {
			return nil, fmt.Errorf("core: load: region %d box has %d/%d bounds for %d dims", i, len(sr.Lo), len(sr.Hi), d)
		}
		regions[i] = &gridtree.Region{Lo: sr.Lo, Hi: sr.Hi, ID: i}
	}
	root, err := fromSnapNode(s.Root, regions, d)
	if err != nil {
		return nil, err
	}
	// Only the variant is saved; everything else takes Build's defaults.
	cfg := Config{Variant: Variant(s.Variant)}
	cfg.fill()
	t := &Tsunami{
		cfg: cfg,
		tree: &gridtree.Tree{
			Root:     root,
			Regions:  regions,
			NumNodes: s.NumNodes,
			Depth:    s.Depth,
			NumTypes: s.NumTypes,
		},
		store:  store,
		bounds: s.Bounds,
	}
	t.grids = make([]*auggrid.Grid, len(s.Regions))
	for i, gs := range s.Grids {
		if i < 0 || i >= len(s.Regions) {
			return nil, fmt.Errorf("core: load: grid for unknown region %d", i)
		}
		if len(gs.Layout.Skeleton) != d {
			return nil, fmt.Errorf("core: load: region %d grid has %d dims, table has %d", i, len(gs.Layout.Skeleton), d)
		}
		g, err := auggrid.FromSnapshot(gs)
		if err != nil {
			return nil, fmt.Errorf("core: load: region %d grid: %w", i, err)
		}
		if b := s.Bounds[i]; g.NumRows() != b[1]-b[0] {
			return nil, fmt.Errorf("core: load: region %d grid indexes %d rows, region has %d", i, g.NumRows(), b[1]-b[0])
		}
		t.grids[i] = g.Bind(store, s.Bounds[i][0])
	}
	for id, rows := range s.Deltas {
		if id < 0 || id >= len(s.Regions) {
			return nil, fmt.Errorf("core: load: deltas for unknown region %d", id)
		}
		if len(rows) == 0 {
			continue
		}
		for _, row := range rows {
			if len(row) != store.NumDims() {
				return nil, fmt.Errorf("core: load: delta row has %d values, table has %d dims", len(row), store.NumDims())
			}
			// A row keyed under a region that doesn't contain it would be
			// invisible to queries routed elsewhere — reject the snapshot
			// rather than silently undercount.
			if got := findRegionForPoint(t.tree.Root, row).ID; got != id {
				return nil, fmt.Errorf("core: load: delta row keyed under region %d belongs to region %d", id, got)
			}
		}
		if t.deltas == nil {
			t.deltas = make(map[int]*delta, len(s.Deltas))
		}
		t.deltas[id] = &delta{rows: rows}
		t.numBuffered += len(rows)
	}
	return t, nil
}

// fromSnapNode rebuilds the subtree at nd over the loaded regions; d is
// the table's dim count.
func fromSnapNode(nd *snapNode, regions []*gridtree.Region, d int) (*gridtree.Node, error) {
	if nd == nil {
		return nil, fmt.Errorf("core: load: nil tree node")
	}
	if nd.RegionID >= 0 {
		if nd.RegionID >= len(regions) {
			return nil, fmt.Errorf("core: load: region id %d out of range", nd.RegionID)
		}
		return &gridtree.Node{Region: regions[nd.RegionID]}, nil
	}
	if nd.SplitDim < 0 || nd.SplitDim >= d {
		return nil, fmt.Errorf("core: load: tree node splits dim %d of %d", nd.SplitDim, d)
	}
	if len(nd.Children) != len(nd.SplitVals)+1 {
		return nil, fmt.Errorf("core: load: tree node on dim %d has %d children for %d split values", nd.SplitDim, len(nd.Children), len(nd.SplitVals))
	}
	out := &gridtree.Node{SplitDim: nd.SplitDim, SplitVals: nd.SplitVals}
	out.Children = make([]*gridtree.Node, len(nd.Children))
	for i, c := range nd.Children {
		child, err := fromSnapNode(c, regions, d)
		if err != nil {
			return nil, err
		}
		out.Children[i] = child
	}
	return out, nil
}
