package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/gridtree"
	"repro/internal/query"
	"repro/internal/testutil"
)

// indexImage is everything an index is made of, captured so that two
// images can be compared field by field: the decoded snapshot Save writes
// (columns, bounds, region boxes, grid snapshots, delta rows — deep copies,
// compared with reflect.DeepEqual because gob writes the Grids and Deltas
// maps in iteration order, so Save bytes are not comparable), plus what
// Save leaves out: the identity of the shared parts, each grid's physical
// offset and each region's query set.
type indexImage struct {
	Snap        snapshot
	Store       *colstore.Store
	Tree        *gridtree.Tree
	Grids       []*auggrid.Grid
	Starts      []int
	Queries     [][]query.Query
	NumBuffered int
}

func imageOf(t *testing.T, idx *Tsunami) indexImage {
	t.Helper()
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	im := indexImage{Store: idx.store, Tree: idx.tree, NumBuffered: idx.numBuffered}
	if err := gob.NewDecoder(&buf).Decode(&im.Snap); err != nil {
		t.Fatal(err)
	}
	for id, g := range idx.grids {
		im.Grids = append(im.Grids, g)
		start := -1
		if g != nil {
			start = g.Start()
		}
		im.Starts = append(im.Starts, start)
		im.Queries = append(im.Queries, append([]query.Query(nil), idx.tree.Regions[id].Queries...))
	}
	return im
}

// allRows is the index's content as a sorted multiset: clustered rows plus
// buffered rows.
func allRows(idx *Tsunami) [][]int64 {
	out := make([][]int64, 0, idx.store.NumRows()+idx.numBuffered)
	for i := 0; i < idx.store.NumRows(); i++ {
		out = append(out, idx.store.Row(i, nil))
	}
	out = append(out, idx.BufferedRows()...)
	sortRows(out)
	return out
}

func sortRows(rows [][]int64) {
	sort.Slice(rows, func(a, b int) bool {
		for j := range rows[a] {
			if rows[a][j] != rows[b][j] {
				return rows[a][j] < rows[b][j]
			}
		}
		return false
	})
}

// oracleOver is an oracle whose whole content is rows (possibly none).
func oracleOver(t *testing.T, rows [][]int64, names []string) *testutil.Oracle {
	t.Helper()
	cols := make([][]int64, len(names))
	for _, row := range rows {
		for j, v := range row {
			cols[j] = append(cols[j], v)
		}
	}
	st, err := colstore.FromColumns(cols, names)
	if err != nil {
		t.Fatal(err)
	}
	return testutil.NewOracle(st)
}

func splitDims(nd *gridtree.Node, into map[int]bool) {
	if nd.Region != nil {
		return
	}
	into[nd.SplitDim] = true
	for _, c := range nd.Children {
		splitDims(c, into)
	}
}

// checkRegionCounts asserts that the per-region row counts an index
// reports — through a traced run's region spans and through IndexStats —
// describe its store, and that the spans account for the answer.
func checkRegionCounts(t *testing.T, idx *Tsunami) {
	t.Helper()
	q := query.NewCount()
	res, tr := traced(idx, q)
	checkSpans(t, q, res, tr)
	var counts []int
	sum := 0
	for _, sp := range tr.Regions {
		counts = append(counts, sp.Rows)
		sum += sp.Rows
	}
	if sum != idx.Store().NumRows() {
		t.Errorf("traced region rows sum to %d, store holds %d", sum, idx.Store().NumRows())
	}
	sort.Ints(counts)
	s := idx.IndexStats()
	if len(counts) != s.NumLeafRegions || s.MinPointsPerRegion != counts[0] ||
		s.MedianPointsPerRegion != counts[len(counts)/2] || s.MaxPointsPerRegion != counts[len(counts)-1] {
		t.Errorf("IndexStats %+v disagrees with the traced region rows %v", s, counts)
	}
}

// TestMaintenanceIsCopyOnWrite drives every maintenance operation over
// every kind of receiver and pins the one contract they share: the
// receiver is not written (while four readers keep querying it), and the
// successor holds exactly the rows it should.
func TestMaintenanceIsCopyOnWrite(t *testing.T) {
	st := testutil.SmallTaxi(8000, 301)
	work := testutil.SkewedQueries(st, 120, 302)
	shifted := testutil.RandomQueries(st, 120, 303)
	base := Build(st, work, smallConfig(FullTsunami))
	if base.IndexStats().NumLeafRegions < 2 {
		t.Fatal("fixture: the Grid Tree did not split")
	}
	split := map[int]bool{}
	splitDims(base.tree.Root, split)
	offDim := 3
	if split[offDim] {
		t.Fatalf("fixture: dim %d is a split dimension", offDim)
	}
	lo0, hi0 := st.MinMax(0)
	loOff, hiOff := st.MinMax(offDim)

	rng := rand.New(rand.NewSource(304))
	taxiRow := func(t0 int64) []int64 {
		return []int64{t0, t0 + 5 + rng.Int63n(120), rng.Int63n(1000), 250 + rng.Int63n(3000), 1 + rng.Int63n(6)}
	}
	// Skewed ingest: one or two regions at the top of dim 0 absorb most
	// rows, the rest of the domain gets a trickle.
	var skewed [][]int64
	for i := 0; i < 300; i++ {
		skewed = append(skewed, taxiRow(990_000+rng.Int63n(10_000)))
	}
	for i := 0; i < 40; i++ {
		skewed = append(skewed, taxiRow(rng.Int63n(900_000)))
	}
	// Rows inside their region on every split dimension but far outside
	// its recorded box on another.
	var outside [][]int64
	for i := 0; i < 6; i++ {
		row := taxiRow(lo0 + (hi0-lo0)*int64(i)/6)
		row[offDim] = 9_000_000 + int64(i)
		outside = append(outside, row)
	}
	// A region without a grid is scanned as one range whose exactness is
	// decided from its box alone, so that is where an unsound box shows.
	gridless := Build(st, nil, smallConfig(FullTsunami))
	states := []struct {
		name     string
		from     *Tsunami
		buffered [][]int64
	}{
		{"clean", base, nil},
		{"buffered", base, skewed},
		{"outside-box", base, outside},
		{"outside-box-gridless", gridless, outside},
	}

	probe := append(testutil.RandomQueries(st, 40, 305),
		query.NewCount(query.Filter{Dim: 0, Lo: 990_000, Hi: 1_100_000}),
		// Covers every region's recorded box on offDim and none of the
		// outside rows: only a widened box keeps this from being "exact".
		query.NewCount(query.Filter{Dim: offDim, Lo: loOff, Hi: hiOff}),
		query.NewSum(offDim, query.Filter{Dim: offDim, Lo: hiOff + 1, Hi: 10_000_000}))
	grouped := testutil.RandomGroupedQueries(st, 12, 306)

	// An op derives a successor from src and reports which rows it should
	// hold: src's rows plus added, minus moved.
	type outcome struct {
		succ         *Tsunami
		added, moved [][]int64
	}
	splitOp := func(lo, hi int64) func(*testing.T, *Tsunami) outcome {
		return func(t *testing.T, src *Tsunami) outcome {
			succ, moved, err := src.SplitRange(0, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range moved {
				if row[0] < lo || row[0] > hi {
					t.Fatalf("moved row %v is outside [%d, %d]", row, lo, hi)
				}
			}
			in := query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: hi})
			if want := src.Execute(in).Count; uint64(len(moved)) != want {
				t.Errorf("moved %d rows, receiver holds %d in range", len(moved), want)
			}
			if got := succ.Execute(in).Count; got != 0 {
				t.Errorf("successor still holds %d in-range rows", got)
			}
			if succ.NumBuffered() != 0 {
				t.Errorf("split left %d rows buffered", succ.NumBuffered())
			}
			return outcome{succ: succ, moved: moved}
		}
	}
	ops := []struct {
		name string
		run  func(*testing.T, *Tsunami) outcome
	}{
		{"CopyWithInserts", func(t *testing.T, src *Tsunami) outcome {
			rows := [][]int64{taxiRow(7_000_000), taxiRow(500_000), outside[0]}
			succ, err := src.CopyWithInserts(rows)
			if err != nil {
				t.Fatal(err)
			}
			if succ.Store() != src.Store() {
				t.Error("copy should share the clustered store")
			}
			if got, want := succ.NumBuffered(), src.NumBuffered()+len(rows); got != want {
				t.Errorf("copy buffers %d rows, want %d", got, want)
			}
			return outcome{succ: succ, added: rows}
		}},
		{"MergedCopy", func(t *testing.T, src *Tsunami) outcome {
			succ, folded, err := src.MergedCopy()
			if err != nil {
				t.Fatal(err)
			}
			if folded != src.NumBuffered() || succ.NumBuffered() != 0 {
				t.Errorf("folded %d of %d rows, %d still buffered", folded, src.NumBuffered(), succ.NumBuffered())
			}
			if folded == 0 && succ != src {
				t.Error("a merge with nothing to fold should return the receiver, not rebuild the store")
			}
			return outcome{succ: succ}
		}},
		{"ReoptimizeRegionsCopy", func(t *testing.T, src *Tsunami) outcome {
			succ, n, secs, err := src.ReoptimizeRegionsCopy(shifted, 4)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 || secs <= 0 {
				t.Errorf("re-optimized %d regions in %gs under a shifted workload", n, secs)
			}
			if succ.NumBuffered() != 0 {
				t.Errorf("re-optimization left %d rows buffered", succ.NumBuffered())
			}
			// Each re-optimized region records the shifted queries routed to
			// it and has one grid over its clustered and buffered rows alike.
			assigned := make(map[int][]query.Query)
			for _, q := range shifted {
				for _, r := range src.tree.FindRegions(q, nil) {
					assigned[r.ID] = append(assigned[r.ID], q)
				}
			}
			reoptimized, withBuffered := 0, 0
			for id, r := range succ.tree.Regions {
				if reflect.DeepEqual(r.Queries, src.tree.Regions[id].Queries) {
					continue
				}
				reoptimized++
				if !reflect.DeepEqual(r.Queries, assigned[id]) {
					t.Errorf("region %d records %d queries, the shifted workload routes %d to it", id, len(r.Queries), len(assigned[id]))
				}
				want := src.regionRows(id)
				if dl := src.deltas[id]; dl != nil {
					want += len(dl.rows)
					withBuffered++
				}
				g := succ.grids[id]
				if (g != nil) != (len(assigned[id]) > 0) || g == src.grids[id] && g != nil {
					t.Errorf("region %d: grid not rebuilt for its %d new queries", id, len(assigned[id]))
				}
				if g != nil && g.NumRows() != want || succ.regionRows(id) != want {
					t.Errorf("region %d: rebuilt over %d rows, want %d", id, succ.regionRows(id), want)
				}
			}
			if reoptimized != n {
				t.Errorf("%d regions changed their query set, %d reported", reoptimized, n)
			}
			if src.NumBuffered() == len(skewed) && withBuffered == 0 {
				t.Error("fixture: no re-optimized region held buffered rows")
			}
			return outcome{succ: succ}
		}},
		{"SplitRange/interior", splitOp(lo0+(hi0-lo0)/3, lo0+2*(hi0-lo0)/3)},
		{"SplitRange/empty", splitOp(5_000_000, 6_000_000)},
		{"SplitRange/whole-domain", splitOp(lo0, 10_000_000)},
	}

	for _, state := range states {
		src, err := state.from.CopyWithInserts(state.buffered)
		if err != nil {
			t.Fatal(err)
		}
		srcRows := allRows(src)
		srcOracle := oracleOver(t, srcRows, st.Names())
		for _, op := range ops {
			t.Run(op.name+"/"+state.name, func(t *testing.T) {
				before := imageOf(t, src)
				want := make([]colstore.ScanResult, len(probe))
				for i, q := range probe {
					want[i] = src.Execute(q)
				}

				stop := make(chan struct{})
				var readers sync.WaitGroup
				for w := 0; w < 4; w++ {
					readers.Add(1)
					go func() {
						defer readers.Done()
						for i := w; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							q := probe[i%len(probe)]
							if got := src.Execute(q); got.Count != want[i%len(probe)].Count || got.Sum != want[i%len(probe)].Sum {
								t.Errorf("reader saw the receiver change on %s", q)
								return
							}
							src.ExecuteGrouped(grouped[i%len(grouped)])
						}
					}()
				}
				out := op.run(t, src)
				close(stop)
				readers.Wait()

				if after := imageOf(t, src); !reflect.DeepEqual(before, after) {
					t.Error("the receiver was written")
				}
				srcOracle.Check(t, src, probe)
				srcOracle.CheckGrouped(t, "receiver", src.ExecuteGrouped, grouped)

				wantRows := [][]int64{}
				moved := append([][]int64(nil), out.moved...)
				sortRows(moved)
				for _, row := range srcRows {
					if len(moved) > 0 && reflect.DeepEqual(row, moved[0]) {
						moved = moved[1:]
						continue
					}
					wantRows = append(wantRows, row)
				}
				if len(moved) != 0 {
					t.Fatalf("%d moved rows are not the receiver's", len(moved))
				}
				wantRows = append(wantRows, out.added...)
				sortRows(wantRows)
				if got := allRows(out.succ); !reflect.DeepEqual(got, wantRows) {
					t.Fatalf("successor holds %d rows, want %d: not the receiver's rows plus added minus moved", len(got), len(wantRows))
				}
				succOracle := oracleOver(t, wantRows, st.Names())
				succOracle.Check(t, out.succ, probe)
				succOracle.CheckGrouped(t, "successor", out.succ.ExecuteGrouped, grouped)
				checkRegionCounts(t, out.succ)

				// The successor resumes normal life: inserts — even back into
				// a range it just gave up — and a merge still work. The rows
				// reach it through CopyWithInserts, as LiveStore's replay does
				// before publishing it; the receiver must not see them.
				extra := [][]int64{taxiRow(lo0 + (hi0-lo0)/2)}
				for i := int64(0); i < 8; i++ {
					extra = append(extra, taxiRow(lo0+(hi0-lo0)*i/8))
				}
				next, err := out.succ.CopyWithInserts(extra)
				if err != nil {
					t.Fatal(err)
				}
				if after := imageOf(t, src); !reflect.DeepEqual(before, after) {
					t.Error("inserting into the successor reached the receiver")
				}
				if next, _, err = next.MergedCopy(); err != nil {
					t.Fatal(err)
				}
				if got, want := next.Execute(query.NewCount()).Count, uint64(len(wantRows)+len(extra)); got != want || next.NumBuffered() != 0 {
					t.Errorf("insert+merge on the successor: count %d (want %d), %d buffered", got, want, next.NumBuffered())
				}
			})
		}
	}
}

// TestLoadReportsSavedRegionCounts pins that a loaded index describes its
// regions exactly as the index that was saved did: neither side keeps row
// ids, both count from bounds.
func TestLoadReportsSavedRegionCounts(t *testing.T) {
	st := testutil.SmallTaxi(6000, 311)
	idx := Build(st, testutil.SkewedQueries(st, 100, 312), smallConfig(FullTsunami))
	for _, r := range idx.tree.Regions {
		if r.Rows != nil {
			t.Fatalf("region %d still holds %d build-time row ids", r.ID, len(r.Rows))
		}
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := idx.IndexStats(), loaded.IndexStats()
	if a.MinPointsPerRegion != b.MinPointsPerRegion || a.MedianPointsPerRegion != b.MedianPointsPerRegion || a.MaxPointsPerRegion != b.MaxPointsPerRegion {
		t.Errorf("points per region: saved %+v, loaded %+v", a, b)
	}
	_, ta := traced(idx, query.NewCount())
	_, tb := traced(loaded, query.NewCount())
	ea, eb := ta.Regions, tb.Regions
	if len(ea) != len(eb) {
		t.Fatalf("a traced run visits %d regions saved, %d loaded", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Rows != eb[i].Rows {
			t.Errorf("region %d: %d rows saved, %d loaded", ea[i].Region, ea[i].Rows, eb[i].Rows)
		}
	}
	checkRegionCounts(t, idx)
	checkRegionCounts(t, loaded)
}
