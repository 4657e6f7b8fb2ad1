package qcache

import (
	"math/bits"
	"math/rand"
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

// get is a served lookup, the way a LiveStore plans and executes one: a
// Peek, its outcome counted, and the result cloned.
func get(c *Cache, ver uint64, qq query.Query) (colstore.ScanResult, bool) {
	r, ok := c.Peek(ver, qq)
	c.Count(ver, qq, ok)
	return r.Clone(), ok
}

// has is a lookup that is never served: a Peek alone.
func has(c *Cache, ver uint64, qq query.Query) bool {
	_, ok := c.Peek(ver, qq)
	return ok
}

func TestPutGetRoundtrip(t *testing.T) {
	c := New(64)
	qa := q(query.Filter{Dim: 0, Lo: 1, Hi: 10})
	if _, ok := get(c, 7, qa); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(7, qa, res(42, 99))
	got, ok := get(c, 7, qa)
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
	a, ok := get(c, 1, q10)
	if !ok || a.Count != 10 {
		t.Fatalf("q10: %+v ok=%v", a, ok)
	}
	b, ok := get(c, 1, q20)
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
	if r, ok := get(c, 1, cnt); !ok || r.Count != 1 {
		t.Fatalf("count entry: %+v ok=%v", r, ok)
	}
	if r, ok := get(c, 1, sum3); !ok || r.Sum != 30 {
		t.Fatalf("sum3 entry: %+v ok=%v", r, ok)
	}
	if r, ok := get(c, 1, sum4); !ok || r.Sum != 40 {
		t.Fatalf("sum4 entry: %+v ok=%v", r, ok)
	}
}

func TestEpochBumpInvalidates(t *testing.T) {
	c := New(64)
	qa := q(query.Filter{Dim: 1, Lo: 5, Hi: 5})
	c.Put(3, qa, res(7, 0))
	if _, ok := get(c, 4, qa); ok {
		t.Fatal("stale epoch served")
	}
	if has(c, 4, qa) || !has(c, 3, qa) {
		t.Fatal("Peek disagrees with the epoch the entry was stored at")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("Peek moved the counters: %+v", st)
	}
	if r, ok := get(c, 3, qa); !ok || r.Count != 7 {
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
	if _, ok := get(c, 1, bad); ok {
		t.Fatal("hit for uncacheable query")
	}
}

// mk is the i-th distinct single-filter query.
func mk(i int) query.Query {
	return q(query.Filter{Dim: 0, Lo: int64(i), Hi: int64(i)})
}

// keygen hands out distinct queries whose keys at a version land in a
// chosen stripe, so a test can fill a stripe exactly.
type keygen struct{ next int }

func (g *keygen) in(t *testing.T, ver uint64, stripe, n int) []query.Query {
	t.Helper()
	var out []query.Query
	for tries := 0; len(out) < n; tries++ {
		if tries > 1<<16 {
			t.Fatalf("no point-filter key reaches stripe %d", stripe)
		}
		qq := mk(g.next)
		g.next++
		if k, _ := keyOf(ver, qq); k.shard() == stripe {
			out = append(out, qq)
		}
	}
	return out
}

// Point filters (Lo == Hi) spread over every stripe: a stripe they cannot
// reach is capacity they cannot use.
func TestPointQueriesReachEveryStripe(t *testing.T) {
	const n = 1024
	var per [nlocks]int
	for i := 0; i < n; i++ {
		k, _ := keyOf(1, mk(i))
		per[k.shard()]++
	}
	for s, got := range per {
		if got < n/nlocks/2 {
			t.Fatalf("stripe %d holds %d of %d point-filter keys: %v", s, got, n, per)
		}
	}
}

// getN asks for qq n times.
func getN(c *Cache, ver uint64, qq query.Query, n int) {
	for i := 0; i < n; i++ {
		get(c, ver, qq)
	}
}

// hitsOf reads the hit count of the entry cached for (ver, qq).
func hitsOf(t *testing.T, c *Cache, ver uint64, qq query.Query) uint32 {
	t.Helper()
	k, _ := keyOf(ver, qq)
	s := &c.shards[k.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[k]
	if !ok {
		t.Fatal("entry not cached")
	}
	return e.hits
}

func TestEvictionBoundsSizeAndPrefersStale(t *testing.T) {
	c := New(32)
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
	if _, ok := get(c, 2, mk(499)); !ok {
		t.Fatal("most recent insert evicted immediately")
	}

	// With perShard == evictScan the sample is the whole stripe, so the
	// victim is determined: in every stripe, the stale entry goes first
	// although it is the most-hit, then the least-hit live entry.
	c = New(nlocks * evictScan)
	var g keygen
	for s := 0; s < nlocks; s++ {
		stale := g.in(t, 1, s, 1)[0]
		live := g.in(t, 2, s, evictScan-1)
		c.Put(1, stale, res(1, 0))
		getN(c, 1, stale, 10)
		for i, qq := range live {
			c.Put(2, qq, res(2, 0))
			getN(c, 2, qq, 2+i)
		}
		fresh := g.in(t, 2, s, 2)
		c.Put(2, fresh[0], res(3, 0))
		if has(c, 1, stale) {
			t.Fatalf("stripe %d: a live entry was evicted before the stale one", s)
		}
		getN(c, 2, fresh[0], 3)
		c.Put(2, fresh[1], res(3, 0))
		if has(c, 2, live[0]) {
			t.Fatalf("stripe %d: the least-hit entry survived", s)
		}
		for _, qq := range append(live[1:], fresh...) {
			if !has(c, 2, qq) {
				t.Fatalf("stripe %d: an entry other than the least-hit was evicted", s)
			}
		}
	}
}

// A Peek never served (a query planned, then refused) is not a use, and a
// re-Put refreshes the result without resetting the count.
func TestHasAndRePutKeepCount(t *testing.T) {
	c := New(64)
	qa := mk(1)
	c.Put(1, qa, res(1, 0))
	getN(c, 1, qa, 3)
	for i := 0; i < 5; i++ {
		has(c, 1, qa)
	}
	if h := hitsOf(t, c, 1, qa); h != 3 {
		t.Fatalf("after 3 served lookups and 5 bare Peeks: %d hits", h)
	}
	if c.Put(1, qa, res(2, 0)); c.Stats().Evictions != 0 {
		t.Fatal("re-Put evicted")
	}
	if h := hitsOf(t, c, 1, qa); h != 3 {
		t.Fatalf("re-Put reset the count to %d", h)
	}
	if r, ok := get(c, 1, qa); !ok || r.Count != 2 {
		t.Fatalf("re-Put did not replace the result: %+v ok=%v", r, ok)
	}
}

// Skewed traffic is what the policy is for: a zipf stream shaped like the
// benchmark's taxi_serve_zipf (s=1.1, v=16 over 8192 distinct queries)
// into a 2048-entry cache, missing queries Put back. Sampled LFU reads
// about 0.80 here, random eviction 0.68.
func TestZipfHitRate(t *testing.T) {
	const distinct, draws, warm = 8192, 200_000, 50_000
	for seed := int64(1); seed <= 3; seed++ {
		c := New(2048)
		z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 16, distinct-1)
		hits := 0
		for i := 0; i < draws; i++ {
			qq := mk(int(z.Uint64()))
			if _, ok := get(c, 1, qq); ok {
				if i >= warm {
					hits++
				}
			} else {
				c.Put(1, qq, res(1, 0))
			}
		}
		rate := float64(hits) / (draws - warm)
		t.Logf("seed %d: hit rate %.3f", seed, rate)
		if rate < 0.74 {
			t.Errorf("seed %d: hit rate %.3f < 0.74", seed, rate)
		}
	}
}

// A hot set asked several times stays resident through a flood of
// one-off keys ten times the cache's capacity.
func TestHotSetSurvivesFlood(t *testing.T) {
	const capacity = 2048
	c := New(capacity)
	hot := make([]query.Query, 64)
	for i := range hot {
		hot[i] = mk(i)
		c.Put(1, hot[i], res(1, 0))
		getN(c, 1, hot[i], 8)
	}
	for i := 0; i < 10*capacity; i++ {
		c.Put(1, mk(len(hot)+i), res(0, 0))
	}
	for i, qq := range hot {
		if !has(c, 1, qq) {
			t.Fatalf("hot query %d evicted by one-off keys", i)
		}
	}
}

// Decay: once a heavily hit set goes cold, a new one asked repeatedly
// among a stream of one-off keys becomes resident within a bounded number
// of insertions. Without decay the cold set pins every stripe and the new
// one churns through the rest.
func TestDecayTurnsOverColdHotSet(t *testing.T) {
	const perShard = 8
	c := New(nlocks * perShard)
	var g keygen
	var cold, hot []query.Query
	for s := 0; s < nlocks; s++ {
		cold = append(cold, g.in(t, 1, s, perShard)...)
		hot = append(hot, g.in(t, 1, s, 2)...)
	}
	const coldHits = 1000
	for _, qq := range cold {
		c.Put(1, qq, res(1, 0))
		getN(c, 1, qq, coldHits)
	}
	inserts := 0
	put := func(qq query.Query) {
		c.Put(1, qq, res(2, 0))
		inserts++
	}
	ask := func(qq query.Query) {
		if _, ok := get(c, 1, qq); !ok {
			put(qq)
		}
	}
	resident := func() bool {
		for _, qq := range hot {
			if !has(c, 1, qq) {
				return false
			}
		}
		return true
	}
	// The cold counts reach zero after bits.Len(coldHits) decays; allow
	// two periods more for stripes the stream reaches unevenly.
	bound := (bits.Len(coldHits) + 2) * decayEvery * perShard * nlocks
	for !resident() {
		if inserts > bound {
			t.Fatalf("new hot set not resident after %d insertions", inserts)
		}
		for _, qq := range hot {
			ask(qq)
			ask(qq)
		}
		for i := 0; i < perShard*nlocks; i++ {
			put(mk(g.next))
			g.next++
		}
	}
	t.Logf("resident after %d insertions (bound %d)", inserts, bound)
}

func TestNilCacheNoOps(t *testing.T) {
	var c *Cache
	qa := q(query.Filter{Dim: 0, Lo: 0, Hi: 1})
	if _, ok := get(c, 1, qa); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(1, qa, res(1, 0))
	if has(c, 1, qa) {
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
				has(c, ver, qa) // races with the Puts below under -race
				if r, ok := get(c, ver, qa); ok {
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
