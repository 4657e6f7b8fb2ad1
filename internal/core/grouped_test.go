package core

import (
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestExecuteGroupedAllocs pins the pooled-accumulator contract: a
// grouped query on the bare index allocates its result's group slice
// and nothing that scales with the group column's span or the plan.
func TestExecuteGroupedAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops pooled contexts under -race")
	}
	st := testutil.SmallTaxi(10000, 1)
	idx := Build(st, testutil.SkewedQueries(st, 120, 2), smallConfig(FullTsunami))
	qs := testutil.RandomGroupedQueries(st, 60, 3)
	for _, q := range qs { // warm the pooled contexts and the column metadata
		idx.ExecuteGrouped(q)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(qs)*3, func() {
		idx.ExecuteGrouped(qs[i%len(qs)])
		i++
	})
	if allocs > 2 {
		t.Fatalf("ExecuteGrouped allocates %.1f times per query, want <= 2 (the result)", allocs)
	}
}

// TestExecuteGroupedParallelMatchesSequential drives the region-pull and
// the chunked worker paths, whose workers each Reset a pooled context's
// accumulator, against the sequential answer.
func TestExecuteGroupedParallelMatchesSequential(t *testing.T) {
	st := testutil.SmallTaxi(10000, 4)
	idx := Build(st, testutil.SkewedQueries(st, 120, 5), smallConfig(FullTsunami))
	if err := idx.Insert([]int64{5, 9, 12, 300, 9}); err != nil { // pax 9: outside every window
		t.Fatal(err)
	}
	for _, q := range testutil.RandomGroupedQueries(st, 80, 6) {
		want := idx.ExecuteGrouped(q)
		for _, workers := range []int{2, 16} {
			got := idx.ExecuteGroupedParallel(q, workers)
			if len(got.Groups) != len(want.Groups) || got.PointsScanned != want.PointsScanned {
				t.Fatalf("%v workers=%d: %d groups / %d points, sequential %d / %d", q, workers,
					len(got.Groups), got.PointsScanned, len(want.Groups), want.PointsScanned)
			}
			for i, g := range got.Groups {
				if g != want.Groups[i] {
					t.Fatalf("%v workers=%d group %d: %+v, sequential %+v", q, workers, i, g, want.Groups[i])
				}
			}
		}
	}
}

// TestExecuteGroupedTraceNamesRegime checks the trace's scan+group stage
// says which accumulation path ran.
func TestExecuteGroupedTraceNamesRegime(t *testing.T) {
	st := testutil.SmallTaxi(10000, 7)
	idx := Build(st, testutil.SkewedQueries(st, 120, 8), smallConfig(FullTsunami))
	for _, c := range []struct {
		q    query.Query
		want colstore.GroupRegime
	}{
		{query.NewCount().By(4), colstore.RegimeByteCode}, // pax: 6 values
		{query.NewSum(3).By(4), colstore.RegimeDense},
		{query.NewCount().By(0), colstore.RegimeHash}, // t: a million values
	} {
		res, tr := idx.ExecuteGroupedTrace(c.q)
		if res.Regime != c.want {
			t.Errorf("%v: result regime %v, want %v", c.q, res.Regime, c.want)
		}
		found := false
		for _, s := range tr.Stages {
			if s.Name == "scan+group" && strings.Contains(s.Detail, c.want.String()) {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: no scan+group stage naming regime %v in %+v", c.q, c.want, tr.Stages)
		}
	}
}
