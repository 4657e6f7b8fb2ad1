package core

import (
	"testing"

	"repro/internal/query"
	"repro/internal/testutil"
)

// TestExecuteAllocs pins the pooled-context contract of the pipeline on
// the bare index: a flat query allocates nothing, and a grouped query
// its result's group slice and nothing that scales with the group
// column's span or the plan.
func TestExecuteAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops pooled contexts under -race")
	}
	st := testutil.SmallTaxi(10000, 1)
	idx := Build(st, testutil.SkewedQueries(st, 120, 2), smallConfig(FullTsunami))
	for _, c := range []struct {
		name string
		qs   []query.Query
		max  float64
	}{
		{"flat", testutil.RandomQueries(st, 60, 3), 0},
		{"grouped", testutil.RandomGroupedQueries(st, 60, 3), 2},
	} {
		for _, q := range c.qs { // warm the pooled contexts and the column metadata
			idx.Execute(q)
		}
		i := 0
		allocs := testing.AllocsPerRun(len(c.qs)*3, func() {
			idx.Execute(c.qs[i%len(c.qs)])
			i++
		})
		if allocs > c.max {
			t.Errorf("a %s Execute allocates %.1f times per query, want <= %v", c.name, allocs, c.max)
		}
	}
}
