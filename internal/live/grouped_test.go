package live

import (
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestLiveExecuteAllocs pins that the live wrapper adds no allocation of
// its own to a query: with the cache off (a cache put clones the groups)
// and metrics on, a flat query allocates nothing and a grouped one its
// result alone.
func TestLiveExecuteAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops pooled contexts under -race")
	}
	st := testutil.SmallTaxi(8000, 51)
	idx := core.Build(st, testutil.SkewedQueries(st, 100, 52), smallConfig())
	s := Open(idx, nil, Config{Metrics: obs.NewRegistry()})
	defer s.Close()
	for _, c := range []struct {
		name string
		qs   []query.Query
		max  float64
	}{
		{"flat", testutil.RandomQueries(st, 60, 53), 0},
		{"grouped", testutil.RandomGroupedQueries(st, 60, 53), 2},
	} {
		for _, q := range c.qs {
			s.Execute(q)
		}
		i := 0
		allocs := testing.AllocsPerRun(len(c.qs)*3, func() {
			s.Execute(c.qs[i%len(c.qs)])
			i++
		})
		if allocs > c.max {
			t.Errorf("a %s LiveStore.Execute allocates %.1f times per query, want <= %v", c.name, allocs, c.max)
		}
	}
}

// TestLiveGroupedRegimeCounters checks every executed grouped query is
// counted once under the accumulation path it ran on, cache hits (no
// scan, no regime) excluded.
func TestLiveGroupedRegimeCounters(t *testing.T) {
	st := testutil.SmallTaxi(8000, 54)
	idx := core.Build(st, testutil.SkewedQueries(st, 100, 55), smallConfig())
	reg := obs.NewRegistry()
	s := Open(idx, nil, Config{Metrics: reg, CacheEntries: 16})
	defer s.Close()

	runs := map[colstore.GroupRegime][]query.Query{
		colstore.RegimeByteCode: {query.NewCount().By(4)},
		colstore.RegimeDense:    {query.NewSum(3).By(4), query.NewCount().By(2)},
		colstore.RegimeHash:     {query.NewCount().By(0), query.NewCount().By(1), query.NewSum(2).By(0)},
	}
	for _, qs := range runs {
		for _, q := range qs {
			s.ExecuteGrouped(q)
			s.ExecuteGrouped(q) // a cache hit
		}
	}
	s.ExecuteWith(query.NewCount().By(4), index.Exec{Trace: new(obs.QueryTrace)}) // traced queries execute: counted
	counters := reg.Snapshot().Counters
	for g, qs := range runs {
		want := uint64(len(qs))
		if g == colstore.RegimeByteCode {
			want++
		}
		name := obs.MGroupedRegime + `{regime="` + g.String() + `"}`
		if got := counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
