package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// TestFoldAnswersLikeRebuild runs the maintenance operations that fold —
// a merge, a cut alone and a cut of an index holding buffered rows — on
// Taxi and TPC-H indexes of every variant, once folding and once with
// every region built again (the merge the fold replaced). Both successors
// hold the same rows and answer every query, flat and grouped, as the
// oracle does; the folded one keeps every region's layout.
func TestFoldAnswersLikeRebuild(t *testing.T) {
	for _, c := range []struct {
		ds, fresh *datasets.Dataset
		types     []workload.TypeSpec
	}{
		{datasets.Taxi(20_000, 5), datasets.Taxi(3_000, 50), workload.TaxiTypes()},
		{datasets.TPCH(20_000, 6), datasets.TPCH(3_000, 60), workload.TPCHTypes()},
	} {
		rng := rand.New(rand.NewSource(7))
		st := c.ds.Store
		work := workload.Generate(st, c.types, 40, 8)
		probe := append(testutil.RandomQueries(st, 150, 9), work[:60]...)
		inserts := make([][]int64, c.fresh.Store.NumRows())
		for i := range inserts {
			inserts[i] = c.fresh.Store.Row(i, nil)
		}
		for _, v := range []Variant{FullTsunami, AugGridOnly, GridTreeOnly, Flood} {
			idx := Build(st, work, smallConfig(v))
			buffered, err := idx.CopyWithInserts(inserts)
			if err != nil {
				t.Fatal(err)
			}
			dim := rng.Intn(st.NumDims())
			lo, hi := st.MinMax(dim)
			cutLo, cutHi := lo+(hi-lo)/3, lo+(hi-lo)/2
			for _, op := range []struct {
				name string
				from *Tsunami
				run  func(*Tsunami) (*Tsunami, error)
			}{
				{"merge", buffered, func(x *Tsunami) (*Tsunami, error) { nt, _, err := x.MergedCopy(); return nt, err }},
				{"cut", idx, func(x *Tsunami) (*Tsunami, error) { nt, _, err := x.SplitRange(dim, cutLo, cutHi); return nt, err }},
				{"cut+merge", buffered, func(x *Tsunami) (*Tsunami, error) { nt, _, err := x.SplitRange(dim, cutLo, cutHi); return nt, err }},
			} {
				name := fmt.Sprintf("%s/%s/%s", c.ds.Name, v, op.name)
				folded, err := op.run(op.from)
				if err != nil {
					t.Fatal(err)
				}
				restore := relearnEveryRegion()
				rebuilt, err := op.run(op.from)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(allRows(folded), allRows(rebuilt), slices.Equal) {
					t.Fatalf("%s: folded and rebuilt successors hold different rows", name)
				}
				for id, g := range folded.grids {
					if g != nil && op.from.grids[id] != nil && g.Layout().String() != op.from.grids[id].Layout().String() {
						t.Fatalf("%s: region %d's layout changed in a fold", name, id)
					}
				}
				oracle := oracleOver(t, allRows(rebuilt), st.Names())
				oracle.Check(t, folded, probe)
				oracle.Check(t, rebuilt, probe)
				grouped := make([]query.Query, 0, 40)
				for i, q := range probe[:40] {
					grouped = append(grouped, q.By(i%st.NumDims()))
				}
				oracle.CheckGrouped(t, name, func(q query.Query) colstore.GroupedResult { return folded.ExecuteGrouped(q) }, grouped)
			}
		}
	}
}
