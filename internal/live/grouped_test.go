package live

import (
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestLiveExecuteGroupedAllocs pins that the live wrapper adds no
// allocation of its own to a grouped query: with the cache off (a cache
// put clones the groups) and metrics on, it is still the result alone.
func TestLiveExecuteGroupedAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops pooled contexts under -race")
	}
	st := testutil.SmallTaxi(8000, 51)
	idx := core.Build(st, testutil.SkewedQueries(st, 100, 52), smallConfig())
	s := Open(idx, nil, Config{Metrics: obs.NewRegistry()})
	defer s.Close()
	qs := testutil.RandomGroupedQueries(st, 60, 53)
	for _, q := range qs {
		s.ExecuteGrouped(q)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(qs)*3, func() {
		s.ExecuteGrouped(qs[i%len(qs)])
		i++
	})
	if allocs > 2 {
		t.Fatalf("LiveStore.ExecuteGrouped allocates %.1f times per query, want <= 2 (the result)", allocs)
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
	s.ExecuteGroupedTrace(query.NewCount().By(4)) // traced queries execute: counted
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
