package sharded

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestCacheHitsReachEveryRoutedShard pins where the cache lives: a query
// served from cache still passes through each shard it routes to, so the
// shards' query counts and the shared latency histogram see all N asks,
// not only the one that scanned.
func TestCacheHitsReachEveryRoutedShard(t *testing.T) {
	st := testutil.SmallTaxi(4000, 461)
	reg := obs.NewRegistry()
	s, err := Open(st, nil, smallConfig(), Config{Shards: 3, Learned: true, CacheEntries: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Dim 0 partitions the store; a filter on dim 2 alone routes everywhere.
	lo, hi := st.MinMax(2)
	q := query.NewCount(query.Filter{Dim: 2, Lo: lo, Hi: lo + (hi-lo)/2})
	routed := len(s.Partitioner().Shards(q, nil))
	if routed < 2 {
		t.Fatalf("probe routes to %d shards, want a multi-shard query", routed)
	}
	const n = 200
	for i := 0; i < n; i++ {
		testutil.CheckMatchesFullScan(t, s, st, []query.Query{q})
	}

	stats := s.Stats()
	var perShard uint64
	for _, ls := range stats.PerShard {
		perShard += ls.Queries
	}
	if want := uint64(n * routed); perShard != want {
		t.Errorf("shards saw %d queries, want %d (%d asks x %d routed shards)", perShard, want, n, routed)
	}
	if got := reg.Snapshot().Hists[obs.MQueryLatency].Count(); got != perShard {
		t.Errorf("%s count = %d, want %d", obs.MQueryLatency, got, perShard)
	}
	if want := uint64((n - 1) * routed); stats.Cache.Hits != want || stats.Cache.Misses != uint64(routed) {
		t.Errorf("cache stats %+v, want %d hits and %d misses", stats.Cache, want, routed)
	}
}

// TestCachedStreamStillFiresDetector closes the adaptivity loop through
// the cache: a stream that is almost entirely cache hits, of a query type
// the shards were not built for, must still drive a routed shard's shift
// detector to a re-optimization.
func TestCachedStreamStillFiresDetector(t *testing.T) {
	st := testutil.SmallTaxi(6000, 471)
	work := testutil.SkewedQueries(st, 120, 472) // filters dims 0 and 1
	var reopts atomic.Int64
	s, err := Open(st, work, smallConfig(), Config{
		Shards:       2,
		Learned:      true,
		CacheEntries: 64,
		OnEvent: func(ev Event) {
			if ev.Kind == live.EventReoptimize {
				reopts.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Four literal queries of a novel type (dims 2 and 3), asked over and
	// over: all but each shard's first ask of each is a hit.
	lo2, hi2 := st.MinMax(2)
	lo3, hi3 := st.MinMax(3)
	var hot []query.Query
	for k := int64(0); k < 4; k++ {
		a, b := lo2+k*(hi2-lo2)/8, lo3+k*(hi3-lo3)/8
		hot = append(hot, query.NewCount(
			query.Filter{Dim: 2, Lo: a, Hi: a + (hi2-lo2)/4},
			query.Filter{Dim: 3, Lo: b, Hi: b + (hi3-lo3)/4},
		))
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; reopts.Load() == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no shard re-optimized under a cached novel stream: %+v", s.Stats())
		}
		s.Execute(hot[i%len(hot)])
		if i%64 == 63 {
			time.Sleep(time.Millisecond) // let the detectors drain their feeds
		}
	}
	cs := s.Stats().Cache
	if rate := float64(cs.Hits) / float64(cs.Hits+cs.Misses); rate < 0.9 {
		t.Fatalf("stream was only %.0f%% cache hits (%+v); the test proved nothing about cached traffic", 100*rate, cs)
	}
	testutil.CheckMatchesFullScan(t, s, st, hot)
}

// TestShardCachesCoherentUnderIngestAndMove is the coherence oracle for
// per-shard result caching behind the router: under concurrent ingest AND
// a cut migration (run with -race), every routed read — each partial a
// cache hit or a miss — must observe a count no older than the last
// fully-inserted batch and no newer than the batches started. A shard
// serving a partial cached before an insert or a row handoff would return
// a count below the floor (or, after a handoff, count moved rows twice).
func TestShardCachesCoherentUnderIngestAndMove(t *testing.T) {
	st := testutil.SmallTaxi(3000, 451)
	base := uint64(st.NumRows())
	dir := filepath.Join(t.TempDir(), "snap")
	s, err := Open(st, nil, smallConfig(), Config{
		Shards:       3,
		Learned:      true,
		SnapshotDir:  dir,
		CacheEntries: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Widen every mid-move window so readers provably execute while the
	// migration protocol is between stages.
	var stages atomic.Int64
	s.moveHook = func(stage string) {
		stages.Add(1)
		time.Sleep(20 * time.Millisecond)
	}

	all := query.NewCount()
	probes := append(testutil.RandomQueries(st, 6, 452), all, query.NewSum(1))

	var (
		started atomic.Uint64 // rows handed to InsertBatch
		done    atomic.Uint64 // rows InsertBatch returned for
		stop    atomic.Bool
		checks  atomic.Int64
		wg      sync.WaitGroup
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := probes[(i+r)%len(probes)]
				if q.Agg == all.Agg && len(q.Filters) == 0 {
					floor := base + done.Load()
					got := s.Execute(all).Count
					ceil := base + started.Load()
					if got < floor || got > ceil {
						t.Errorf("reader %d: COUNT(*)=%d outside the linearizable window [%d, %d] — stale or torn cache entry",
							r, got, floor, ceil)
						return
					}
					checks.Add(1)
					continue
				}
				s.Execute(q)
			}
		}(r)
	}

	// Skewed ingest builds the imbalance the rebalance will then move.
	extra := skewedRows(st, 1200, 453)
	half := len(extra) / 2
	ingest := func(rows [][]int64) {
		for off := 0; off < len(rows); off += 25 {
			end := off + 25
			if end > len(rows) {
				end = len(rows)
			}
			batch := rows[off:end]
			started.Add(uint64(len(batch)))
			if err := s.InsertBatch(batch); err != nil {
				t.Error(err)
				return
			}
			done.Add(uint64(len(batch)))
		}
	}
	ingest(extra[:half])
	if err := s.Rebalance(); err != nil { // migrates cuts while readers run
		t.Fatal(err)
	}
	ingest(extra[half:])
	stop.Store(true)
	wg.Wait()

	if s.Stats().RowsMigrated == 0 {
		t.Fatal("rebalance moved no rows; the mid-move windows proved nothing")
	}
	if stages.Load() == 0 {
		t.Fatal("moveHook never fired")
	}
	if checks.Load() == 0 {
		t.Fatal("no linearizable-window check ever ran")
	}

	// Quiescent exactness: with ingest and migration over, every probe —
	// now answered through warm caches — must match a full scan of the
	// combined truth, and a repeated ask (a guaranteed hit on every routed
	// shard, their epochs being stable) must be byte-identical to the first.
	truth := combined(t, st, extra)
	testutil.CheckMatchesFullScan(t, s, truth, probes)
	for _, q := range probes {
		first := s.Execute(q)
		if second := s.Execute(q); !first.Equal(second) {
			t.Fatalf("stable-epoch repeat diverged for %v: %+v vs %+v", q, first, second)
		}
	}
	if cs := s.Stats().Cache; cs.Hits == 0 {
		t.Fatalf("shard caches never hit (stats %+v)", cs)
	}
}
