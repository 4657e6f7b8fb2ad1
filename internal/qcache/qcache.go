// Package qcache is the epoch-keyed query-result cache behind the
// serving layers' hot paths.
//
// The cache key is (version, exact canonical query) — the query's
// literal filter bounds included. This is deliberately NOT the wstats
// fingerprint: fingerprints erase literal bounds so that
// `count fare<=10` and `count fare<=20` collapse into one shape for
// workload accounting, which is exactly wrong for a result cache — the
// two queries have different answers. Keying on the exact literals makes
// a hit correct by construction; the wstats heavy-hitter list is still
// the right tool for deciding *what* is worth caching, just not for
// identifying an entry.
//
// Invalidation is exact and free. The version a caller passes is the
// serving epoch the result was computed at: the LiveStore's epoch
// counter (a ShardedStore caches nothing itself — each shard's LiveStore
// caches its own partials). Every publish bumps the epoch,
// so a cached entry is valid precisely while its version is current — a
// stale entry's key simply never matches again and no sweeper or TTL is
// needed.
//
// Eviction is sampled LFU with decay, because serving traffic is skewed
// (the paper's premise) and a hot result is worth keeping over a one-off.
// Every entry carries a saturating hit count that a served hit bumps
// (Count); a Peek does not (a query planned and then refused is not a
// use), and a re-Put of a cached key keeps it. A Put into a full stripe samples up to evictScan entries: a
// provably stale one (its version differs from the one being inserted)
// is the victim if the sample holds one, else the least-hit entry in the
// sample. Each stripe halves all its counts every decayEvery x its
// capacity insertions, so a hot set that traffic stops asking for loses
// its claim in bounded time instead of pinning the cache forever.
package qcache

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/query"
)

const (
	// maxFilters bounds the inline filter array in a key. Queries with
	// more filters are simply not cached — at that width the routing and
	// scan cost dwarfs a map probe anyway.
	maxFilters = 8
	// nlocks is the lock-striping factor: keys hash across this many
	// independently locked map shards.
	nlocks = 16
	// evictScan is how many map entries (in map-iteration order, a cheap
	// random sample) a full stripe examines to pick a victim: the first
	// stale-version entry it meets, else the least-hit entry sampled.
	evictScan = 16
	// decayEvery is the decay period in units of a stripe's capacity:
	// after decayEvery*perShard insertions a stripe halves every count.
	decayEvery = 16
)

// key is the exact identity of a cached result: version plus the full
// canonical query (aggregate, aggregate dimension, and every filter with
// its literal bounds). It is a comparable value type so lookups are
// allocation-free map probes. query.Type is excluded — it names the
// template a query was generated from, not its semantics.
type key struct {
	ver     uint64
	agg     query.Agg
	aggDim  int
	groupBy int // query.Query.GroupBy: 1+dim for grouped, 0 for flat
	nf      int
	f       [maxFilters]query.Filter
}

// entry is one cached result and the number of Gets it served (halved
// by decay). A stored result owns its groups slice.
type entry struct {
	res  colstore.ScanResult
	hits uint32
}

// lockShard is one stripe of the map. Flat and grouped results are one
// value type and share it: their keys can never collide because groupBy
// is part of the key (0 for flat queries, 1+dim for grouped ones).
type lockShard struct {
	mu      sync.Mutex
	m       map[key]*entry
	inserts int // new keys since the last decay
}

// Cache is a bounded, concurrency-safe result cache. A nil *Cache is
// valid and no-ops (misses on Get, drops Puts), matching the serving
// stack's nil→no-op observability contract.
type Cache struct {
	perShard  int
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	shards    [nlocks]lockShard
}

// New returns a cache holding roughly entries results (rounded up to the
// lock-striping granularity). entries <= 0 returns nil — the no-op cache.
func New(entries int) *Cache {
	if entries <= 0 {
		return nil
	}
	per := (entries + nlocks - 1) / nlocks
	c := &Cache{perShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[key]*entry, per)
	}
	return c
}

// keyOf builds the cache key for q at ver. ok=false means the query is
// not cacheable: too many filters, or filters not in canonical order
// (query constructors normalize — sorted by dimension, duplicates
// intersected — so a non-canonical query is a hand-built one whose
// textual identity is unreliable; refusing to cache it is always safe).
func keyOf(ver uint64, q query.Query) (key, bool) {
	if len(q.Filters) > maxFilters {
		return key{}, false
	}
	k := key{ver: ver, agg: q.Agg, groupBy: q.GroupBy, nf: len(q.Filters)}
	if q.Agg == query.Sum {
		k.aggDim = q.AggDim
	}
	last := -1
	for i, f := range q.Filters {
		if f.Dim <= last {
			return key{}, false
		}
		last = f.Dim
		k.f[i] = f
	}
	return k, true
}

// fnv-1a over the key's fields, for lock-shard selection.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (k *key) shard() int {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		h ^= v
		h *= fnvPrime
	}
	mix(k.ver)
	mix(uint64(k.agg)<<32 | uint64(uint32(k.aggDim)))
	mix(uint64(uint32(k.groupBy)))
	mix(uint64(k.nf))
	for i := 0; i < k.nf; i++ {
		f := &k.f[i]
		mix(uint64(f.Dim))
		mix(uint64(f.Lo))
		mix(uint64(f.Hi))
	}
	// Word-wise FNV leaves the low bits a function of the inputs' low bits
	// alone (a point filter, Lo == Hi, cancels out of bit 0 and would reach
	// half the stripes), so finish with murmur3's fmix64.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % nlocks)
}

// lookup is the stripe-locked map probe behind Peek and Count; ok=false
// for a nil cache, an uncacheable query, or a miss. use counts a hit on
// the entry found.
func (c *Cache) lookup(ver uint64, q query.Query, use bool) (res colstore.ScanResult, ok bool) {
	if c == nil {
		return res, false
	}
	k, ok := keyOf(ver, q)
	if !ok {
		return res, false
	}
	s := &c.shards[k.shard()]
	s.mu.Lock()
	e, ok := s.m[k]
	if ok {
		res = e.res
		if use && e.hits < math.MaxUint32 {
			e.hits++
		}
	}
	s.mu.Unlock()
	return res, ok
}

// Peek looks up q's result at version ver without counting a hit or a
// miss — on the cache or on the entry: a query is looked up when it is
// planned, and may be refused before it is served. Count records the
// outcome once it is. A miss (or a nil cache) reports ok=false. A grouped
// result's groups are the entry's own, never written again (a re-Put
// replaces them): Clone before handing them out.
func (c *Cache) Peek(ver uint64, q query.Query) (colstore.ScanResult, bool) {
	return c.lookup(ver, q, false)
}

// Count records how a Peek of q at version ver was served: from the cache
// (hit) — a use on the entry, if it is still cached, and a hit — or by
// executing the query — a miss. No-op on a nil cache.
func (c *Cache) Count(ver uint64, q query.Query, hit bool) {
	if c == nil {
		return
	}
	if !hit {
		c.misses.Add(1)
		return
	}
	c.lookup(ver, q, true)
	c.hits.Add(1)
}

// Put stores q's result computed at version ver. The entry keeps its own
// deep copy of a grouped result's groups, so the caller's result remains
// independently usable; a re-Put of a cached key replaces the result and
// keeps the entry's hit count. An entry evicted to make room is counted
// in Stats. Uncacheable queries are dropped.
func (c *Cache) Put(ver uint64, q query.Query, res colstore.ScanResult) {
	if c == nil {
		return
	}
	k, ok := keyOf(ver, q)
	if !ok {
		return
	}
	own := res.Clone()
	s := &c.shards[k.shard()]
	s.mu.Lock()
	if e, exists := s.m[k]; exists {
		e.res = own
		s.mu.Unlock()
		return
	}
	if len(s.m) >= c.perShard {
		// Evict: map iteration order is effectively random, so the first
		// evictScan yielded entries are a cheap sample. A provably stale
		// one (not at the version being inserted) goes first, else the
		// least-hit one sampled.
		var victim key
		var least *entry
		n := 0
		for ek, e := range s.m {
			if ek.ver != ver {
				victim = ek
				break
			}
			if least == nil || e.hits < least.hits {
				victim, least = ek, e
			}
			if n++; n >= evictScan {
				break
			}
		}
		delete(s.m, victim)
		c.evictions.Add(1)
	}
	s.m[k] = &entry{res: own}
	if s.inserts++; s.inserts >= decayEvery*c.perShard {
		s.inserts = 0
		for _, e := range s.m {
			e.hits >>= 1
		}
	}
	s.mu.Unlock()
}

// Stats is a point-in-time view of the cache's counters and size.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// Stats reports hit/miss/eviction totals and the current entry count.
// Safe on a nil cache (all zeros).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}

// Len is the current number of cached entries. Safe on a nil cache.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
