package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/auggrid"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// TestLoadRejectsCorruptSnapshot edits one table of a saved 20k-row Taxi
// index per case and checks that Load refuses it with the error of the
// check that case breaks. Without the checks, a halved cell table loaded
// and then panicked on the first query, an out-of-order one answered
// wrong, and an inflated last offset or region bound loaded silently.
func TestLoadRejectsCorruptSnapshot(t *testing.T) {
	taxi := datasets.Taxi(20000, 1)
	cfg := Config{Grid: auggrid.OptimizeConfig{
		Eval:     auggrid.EvalConfig{SampleSize: 512, MaxQueries: 20},
		MaxIters: 2,
		Seed:     1,
	}}
	idx := Build(taxi.Store, workload.Generate(taxi.Store, workload.TaxiTypes(), 20, 7), cfg)
	var saved bytes.Buffer
	if err := idx.Save(&saved); err != nil {
		t.Fatal(err)
	}
	decode := func() *snapshot {
		var s snapshot
		if err := gob.NewDecoder(bytes.NewReader(saved.Bytes())).Decode(&s); err != nil {
			t.Fatal(err)
		}
		return &s
	}

	// The edits land on the lowest-numbered grid with a conditional dim
	// and more than two cells; cond is that dim and indep an independent
	// dim of the same grid other than its sort dim.
	orig := decode()
	gid, cond, indep := -1, -1, -1
	for id := range len(orig.Regions) {
		gs, ok := orig.Grids[id]
		if !ok || len(gs.Offsets) <= 3 {
			continue
		}
		for j, st := range gs.Layout.Skeleton {
			switch st.Kind {
			case auggrid.Conditional:
				cond = j
			case auggrid.Independent:
				if j != gs.Layout.SortDim {
					indep = j
				}
			}
		}
		if cond >= 0 && indep >= 0 && gs.Layout.SortDim >= 0 {
			gid = id
			break
		}
		cond, indep = -1, -1
	}
	if gid < 0 || gid == len(orig.Regions)-1 {
		t.Fatalf("no grid to corrupt before the last region:\n%s", idx.DebugRegions())
	}
	d := len(orig.Cols)

	cases := []struct {
		name string
		edit func(s *snapshot, g *auggrid.GridSnapshot)
		want string
	}{
		{"cell table truncated to half", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.Offsets = g.Offsets[:len(g.Offsets)/2]
		}, "offsets for"},
		{"cell table out of order", func(s *snapshot, g *auggrid.GridSnapshot) {
			// Swap the ends of the first non-empty cell after cell 0.
			c := 2
			for g.Offsets[c] == g.Offsets[c-1] {
				c++
			}
			g.Offsets[c-1], g.Offsets[c] = g.Offsets[c], g.Offsets[c-1]
		}, "offsets decrease"},
		{"first offset not zero", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.Offsets[0] = -1
		}, "first offset"},
		{"last offset inflated", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.Offsets[len(g.Offsets)-1]++
		}, "offsets end at"},
		{"grid over 2^32 rows", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.N = math.MaxUint32 + 1
			g.NOutliers = g.N - g.Offsets[len(g.Offsets)-1]
		}, "has 4294967296 rows"},
		{"negative outlier count", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.Offsets[len(g.Offsets)-1] += 5
			g.NOutliers = -5
		}, "-5 outliers"},
		{"independent boundaries short", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.Bounds[indep] = g.Bounds[indep][:len(g.Bounds[indep])-1]
		}, "boundaries for"},
		{"independent boundaries out of order", func(s *snapshot, g *auggrid.GridSnapshot) {
			b := g.Bounds[indep]
			b[0], b[len(b)-1] = b[len(b)-1], b[0]
		}, "out of order"},
		{"conditional table per extra base partition", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.CondBounds[cond] = append(g.CondBounds[cond], g.CondBounds[cond][0])
		}, "conditional tables"},
		{"conditional boundaries short", func(s *snapshot, g *auggrid.GridSnapshot) {
			b := g.CondBounds[cond][0]
			g.CondBounds[cond][0] = b[:len(b)-1]
		}, "boundaries for"},
		{"zero partitions", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.Layout.P[indep] = 0
		}, "partitions in dim"},
		{"per-dim minimum missing a dim", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.DimLo = g.DimLo[:d-1]
		}, "per-dim ranges"},
		{"per-dim range inverted", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.DimLo[indep] = g.DimHi[indep] + 1
		}, "per-dim range of dim"},
		{"sort-dim range narrower than its cells", func(s *snapshot, g *auggrid.GridSnapshot) {
			// The planner would skip the grid for a sort filter below the
			// maximum, though cells hold rows it matches.
			sd := g.Layout.SortDim
			g.DimLo[sd] = g.DimHi[sd]
		}, "sort-dim range"},
		{"grid with a dim the table lacks", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.Layout.Skeleton = append(g.Layout.Skeleton, auggrid.DimStrategy{Kind: auggrid.Independent, Other: -1})
			g.Layout.P = append(g.Layout.P, 1)
		}, "dims, table has"},
		{"region bound inflated", func(s *snapshot, g *auggrid.GridSnapshot) {
			s.Bounds[gid][1]++
		}, "want it to start at"},
		{"regions stop short of the table", func(s *snapshot, g *auggrid.GridSnapshot) {
			s.Bounds[len(s.Bounds)-1][1]--
		}, "regions cover"},
		{"grid wider than its region", func(s *snapshot, g *auggrid.GridSnapshot) {
			g.N++
			g.NOutliers++
		}, "rows, region has"},
		{"region box missing a dim", func(s *snapshot, g *auggrid.GridSnapshot) {
			s.Regions[gid].Hi = s.Regions[gid].Hi[:d-1]
		}, "box has"},
		{"tree splits a dim past the table", func(s *snapshot, g *auggrid.GridSnapshot) {
			s.Root.SplitDim = d
		}, "splits dim"},
		{"tree node missing a child", func(s *snapshot, g *auggrid.GridSnapshot) {
			s.Root.Children = s.Root.Children[:len(s.Root.Children)-1]
		}, "children for"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := decode()
			g := s.Grids[gid]
			c.edit(s, &g)
			s.Grids[gid] = g
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(s); err != nil {
				t.Fatal(err)
			}
			_, err := Load(&buf)
			if err == nil {
				t.Fatalf("Load accepted the snapshot, want an error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Load: %v, want an error containing %q", err, c.want)
			}
		})
	}

	// The snapshot the cases edit, re-encoded untouched, loads and answers.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(decode()); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewCount()
	if got, want := loaded.Execute(q).Count, idx.Execute(q).Count; got != want {
		t.Fatalf("re-encoded snapshot counts %d rows, want %d", got, want)
	}
}

// TestLoadRefusesHugeMapCount loads an input FuzzLoadSnapshot mutated from
// its seed: 3 889 bytes in which one of a grid's dim-keyed tables claims
// 4 202 827 266 entries. gob sized the map from that count before reading
// an entry, so Load allocated until the process ran out of memory (past
// 1.4 GB within seconds); it must refuse the input instead.
func TestLoadRefusesHugeMapCount(t *testing.T) {
	data, err := os.ReadFile("testdata/load-huge-map-count.gob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("Load accepted a snapshot whose map claims more entries than its bytes hold")
	}
}

// FuzzLoadSnapshot feeds Load mutated snapshots of a small index with
// buffered rows: it must refuse a snapshot, or answer flat and grouped
// queries from it without panicking.
func FuzzLoadSnapshot(f *testing.F) {
	// A small seed keeps each input quick to run and to minimize.
	st := testutil.SmallTaxi(160, 1)
	cfg := smallConfig(FullTsunami)
	cfg.GridTree.MinPointsFloor, cfg.MinRowsForGrid = 40, 16
	idx := Build(st, testutil.SkewedQueries(st, 30, 2), cfg)
	if idx.IndexStats().TotalGridCells <= 1 {
		f.Fatal("the seed index has no grid of more than one cell")
	}
	idx, err := idx.CopyWithInserts([][]int64{{1, 2, 3, 4, 5}, st.Row(7, nil)})
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := idx.Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, q := range loadProbes(loaded.Store().NumDims()) {
			loaded.Execute(q)
			loaded.ExecuteGrouped(q.By(0))
		}
	})
}

// loadProbes is a fixed set of queries over d dims: no filter, then per
// dim an unbounded, a bounded and an equality filter, and a sum.
func loadProbes(d int) []query.Query {
	qs := []query.Query{query.NewCount()}
	for j := range d {
		qs = append(qs,
			query.NewCount(query.Filter{Dim: j, Lo: query.NoLo, Hi: 1000}),
			query.NewCount(query.Filter{Dim: j, Lo: -5000, Hi: 5000}, query.Filter{Dim: (j + 1) % d, Lo: 0, Hi: query.NoHi}),
			query.NewSum(d-1-j, query.Filter{Dim: j, Lo: 3, Hi: 3}))
	}
	return qs
}
