package qcache

import (
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
)

func q(filters ...query.Filter) query.Query {
	return query.NewCount(filters...)
}

func res(count uint64, sum int64) colstore.ScanResult {
	return colstore.ScanResult{Count: count, Sum: sum}
}

func TestPutGetRoundtrip(t *testing.T) {
	c := New(64)
	qa := q(query.Filter{Dim: 0, Lo: 1, Hi: 10})
	if _, ok := c.Get(7, qa); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(7, qa, res(42, 99))
	got, ok := c.Get(7, qa)
	if !ok || got.Count != 42 || got.Sum != 99 {
		t.Fatalf("roundtrip: got %+v ok=%v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// Literal bounds are part of the identity — the property the wstats
// fingerprint deliberately lacks and the reason the cache does not key
// on it.
func TestLiteralBoundsDistinguishEntries(t *testing.T) {
	c := New(64)
	q10 := q(query.Filter{Dim: 2, Lo: query.NoLo, Hi: 10})
	q20 := q(query.Filter{Dim: 2, Lo: query.NoLo, Hi: 20})
	c.Put(1, q10, res(10, 0))
	c.Put(1, q20, res(20, 0))
	a, ok := c.Get(1, q10)
	if !ok || a.Count != 10 {
		t.Fatalf("q10: %+v ok=%v", a, ok)
	}
	b, ok := c.Get(1, q20)
	if !ok || b.Count != 20 {
		t.Fatalf("q20: %+v ok=%v", b, ok)
	}
}

func TestAggregateDistinguishesEntries(t *testing.T) {
	c := New(64)
	f := []query.Filter{{Dim: 0, Lo: 0, Hi: 5}}
	cnt := query.NewCount(f...)
	sum3 := query.NewSum(3, f...)
	sum4 := query.NewSum(4, f...)
	c.Put(1, cnt, res(1, 0))
	c.Put(1, sum3, res(2, 30))
	c.Put(1, sum4, res(2, 40))
	if r, ok := c.Get(1, cnt); !ok || r.Count != 1 {
		t.Fatalf("count entry: %+v ok=%v", r, ok)
	}
	if r, ok := c.Get(1, sum3); !ok || r.Sum != 30 {
		t.Fatalf("sum3 entry: %+v ok=%v", r, ok)
	}
	if r, ok := c.Get(1, sum4); !ok || r.Sum != 40 {
		t.Fatalf("sum4 entry: %+v ok=%v", r, ok)
	}
}

func TestEpochBumpInvalidates(t *testing.T) {
	c := New(64)
	qa := q(query.Filter{Dim: 1, Lo: 5, Hi: 5})
	c.Put(3, qa, res(7, 0))
	if _, ok := c.Get(4, qa); ok {
		t.Fatal("stale epoch served")
	}
	if c.Has(4, qa) || !c.Has(3, qa) {
		t.Fatal("Has disagrees with the epoch the entry was stored at")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("Has moved the counters: %+v", st)
	}
	if r, ok := c.Get(3, qa); !ok || r.Count != 7 {
		t.Fatal("current epoch entry lost")
	}
}

func TestUncacheableQueries(t *testing.T) {
	c := New(64)
	// Too many filters.
	wide := make([]query.Filter, maxFilters+1)
	for i := range wide {
		wide[i] = query.Filter{Dim: i, Lo: 0, Hi: 1}
	}
	c.Put(1, query.Query{Agg: query.Count, Filters: wide}, res(1, 0))
	if c.Len() != 0 {
		t.Fatal("cached a too-wide query")
	}
	// Non-canonical filter order (hand-built query bypassing normalize).
	bad := query.Query{Agg: query.Count, Filters: []query.Filter{
		{Dim: 3, Lo: 0, Hi: 1}, {Dim: 1, Lo: 0, Hi: 1},
	}}
	c.Put(1, bad, res(1, 0))
	if c.Len() != 0 {
		t.Fatal("cached a non-canonical query")
	}
	if _, ok := c.Get(1, bad); ok {
		t.Fatal("hit for uncacheable query")
	}
}

func TestEvictionBoundsSizeAndPrefersStale(t *testing.T) {
	c := New(32)
	mk := func(i int) query.Query {
		return q(query.Filter{Dim: 0, Lo: int64(i), Hi: int64(i)})
	}
	// A stale-epoch entry per lock shard's worth, then flood with a newer
	// epoch: size must stay bounded and evictions must be counted.
	for i := 0; i < 16; i++ {
		c.Put(1, mk(i), res(uint64(i), 0))
	}
	for i := 0; i < 500; i++ {
		c.Put(2, mk(i), res(uint64(i), 0))
	}
	// Capacity rounds up per lock shard; allow that slack.
	if n := c.Len(); n > 32+nlocks {
		t.Fatalf("cache grew past capacity: %d entries", n)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("flood evicted nothing")
	}
	// Spot-check: current-epoch lookups still mostly work for the latest
	// inserts (the newest entries were inserted after eviction pressure).
	if _, ok := c.Get(2, mk(499)); !ok {
		t.Fatal("most recent insert evicted immediately")
	}
}

func TestNilCacheNoOps(t *testing.T) {
	var c *Cache
	qa := q(query.Filter{Dim: 0, Lo: 0, Hi: 1})
	if _, ok := c.Get(1, qa); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(1, qa, res(1, 0))
	if c.Has(1, qa) {
		t.Fatal("nil cache has an entry")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache len")
	}
	if New(0) != nil || New(-5) != nil {
		t.Fatal("New(<=0) must return the nil no-op cache")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				qa := q(query.Filter{Dim: w % 3, Lo: int64(i % 50), Hi: int64(i%50 + w)})
				ver := uint64(i % 4)
				c.Has(ver, qa) // races with the Puts below under -race
				if r, ok := c.Get(ver, qa); ok {
					// Any hit must carry the value stored for exactly this
					// (ver, query) pair.
					want := uint64(ver*1000) + uint64(i%50)
					if r.Count != want {
						t.Errorf("stale or corrupt hit: got %d want %d", r.Count, want)
						return
					}
				} else {
					c.Put(ver, qa, res(uint64(ver*1000)+uint64(i%50), 0))
				}
			}
		}()
	}
	wg.Wait()
}
