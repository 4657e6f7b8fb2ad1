package core

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/auggrid"
	"repro/internal/query"
	"repro/internal/testutil"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	st := testutil.SmallTaxi(10000, 1)
	work := testutil.SkewedQueries(st, 150, 2)
	idx := Build(st, work, smallConfig(FullTsunami))

	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// The loaded index answers exactly like the original on fresh queries.
	probe := testutil.RandomQueries(st, 100, 3)
	for _, q := range probe {
		a := idx.Execute(q)
		b := loaded.Execute(q)
		if a.Count != b.Count || a.Sum != b.Sum {
			t.Fatalf("loaded index diverges on %s: (%d, %d) vs (%d, %d)",
				q, b.Count, b.Sum, a.Count, a.Sum)
		}
	}
	// Structure statistics survive.
	sa, sb := idx.IndexStats(), loaded.IndexStats()
	if sa.NumLeafRegions != sb.NumLeafRegions || sa.TotalGridCells != sb.TotalGridCells {
		t.Errorf("stats diverge: %+v vs %+v", sa, sb)
	}
	if sa.NumGridTreeNodes != sb.NumGridTreeNodes || sa.GridTreeDepth != sb.GridTreeDepth {
		t.Errorf("tree shape diverges: %+v vs %+v", sa, sb)
	}
}

func TestSaveCarriesBufferedInserts(t *testing.T) {
	st := testutil.SmallTaxi(5000, 4)
	work := testutil.SkewedQueries(st, 100, 5)
	var rows [][]int64
	for i := 0; i < 25; i++ {
		rows = append(rows, []int64{5_000_000, 5_000_100, 7, 7, 7})
	}
	idx, err := Build(st, work, smallConfig(FullTsunami)).CopyWithInserts(rows)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Save is a pure read: the source index still holds its buffered rows
	// unmerged (a live snapshot must not perturb the serving index).
	if got := idx.NumBuffered(); got != 25 {
		t.Errorf("Save mutated the index: %d rows buffered, want 25", got)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The buffered rows round-trip as deltas, still unmerged...
	if got := loaded.NumBuffered(); got != 25 {
		t.Errorf("loaded index has %d rows buffered, want 25", got)
	}
	q := query.NewCount(query.Filter{Dim: 0, Lo: 5_000_000, Hi: 5_000_000})
	if got := loaded.Execute(q).Count; got != 25 {
		t.Errorf("buffered inserts lost through save/load: count = %d, want 25", got)
	}
	// ...and merge cleanly on the restored index.
	if loaded, _, err = loaded.MergedCopy(); err != nil {
		t.Fatal(err)
	}
	if got := loaded.Execute(q).Count; got != 25 {
		t.Errorf("merge after load lost rows: count = %d, want 25", got)
	}
	if loaded.Store().NumRows() != 5025 {
		t.Errorf("rows after merge = %d, want 5025", loaded.Store().NumRows())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage input should fail to load")
	}
}

func TestLoadedIndexSupportsInserts(t *testing.T) {
	st := testutil.SmallTaxi(5000, 6)
	work := testutil.SkewedQueries(st, 100, 7)
	idx := Build(st, work, smallConfig(FullTsunami))
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded, err = loaded.CopyWithInserts([][]int64{{1, 2, 3, 4, 5}}); err != nil {
		t.Fatal(err)
	}
	if loaded, _, err = loaded.MergedCopy(); err != nil {
		t.Fatal(err)
	}
	if loaded.Store().NumRows() != 5001 {
		t.Errorf("rows = %d, want 5001", loaded.Store().NumRows())
	}
}

// TestLoadKeepsBuildSettings checks that a loaded index re-optimizes with
// the settings it was built with: an index built with an outlier buffer
// and the GD search, saved and loaded, lays out every region it
// re-optimizes with the same outlier fraction. A file without the
// settings (written before they were saved) loads with the defaults, and
// one naming an optimizer that does not exist is refused.
func TestLoadKeepsBuildSettings(t *testing.T) {
	st := testutil.SmallTaxi(20000, 1)
	cfg := smallConfig(FullTsunami)
	cfg.Grid.OutlierFrac = 0.01
	cfg.Optimizer = auggrid.GD()
	cfg.MinRowsForGrid = 300
	idx := Build(st, testutil.SkewedQueries(st, 150, 2), cfg)
	save := func(idx *Tsunami) *bytes.Buffer {
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	loaded, err := Load(save(idx))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.cfg.Grid != cfg.Grid || loaded.cfg.MinRowsForGrid != 300 || loaded.cfg.Optimizer.Name != "GD" {
		t.Fatalf("loaded settings %+v, %d, %q; built with %+v, 300, GD", loaded.cfg.Grid, loaded.cfg.MinRowsForGrid, loaded.cfg.Optimizer.Name, cfg.Grid)
	}
	re, n, _, err := loaded.ReoptimizeRegionsCopy(testutil.RandomQueries(st, 150, 9), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no region re-optimized")
	}
	for id, g := range re.grids {
		if g != nil && g.Layout().OutlierFrac != 0.01 {
			t.Errorf("region %d re-optimized with outlier fraction %v, built with 0.01", id, g.Layout().OutlierFrac)
		}
	}

	// Without the settings: today's defaults.
	var s snapshot
	if err := gob.NewDecoder(save(idx)).Decode(&s); err != nil {
		t.Fatal(err)
	}
	s.Grid, s.MinRowsForGrid, s.Optimizer = auggrid.OptimizeConfig{}, 0, ""
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&s); err != nil {
		t.Fatal(err)
	}
	if loaded, err = Load(&old); err != nil {
		t.Fatal(err)
	}
	want := Config{Variant: FullTsunami}
	want.fill()
	if loaded.cfg.Grid != want.Grid || loaded.cfg.MinRowsForGrid != want.MinRowsForGrid || loaded.cfg.Optimizer.Name != want.Optimizer.Name {
		t.Fatalf("a file without settings loads %+v, %d, %q; want the defaults", loaded.cfg.Grid, loaded.cfg.MinRowsForGrid, loaded.cfg.Optimizer.Name)
	}

	unknown := *idx
	unknown.cfg.Optimizer = auggrid.Optimizer{Name: "Oracle"}
	if _, err := Load(save(&unknown)); err == nil || !strings.Contains(err.Error(), "unknown optimizer") {
		t.Fatalf("a file naming an unknown optimizer loaded (err %v)", err)
	}
}
