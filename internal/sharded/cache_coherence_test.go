package sharded

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/testutil"
)

// TestRouterCacheCoherenceUnderIngestAndMove is the coherence oracle for
// the router-level result cache: under concurrent ingest AND a cut
// migration (run with -race), every routed read — cache hit or miss —
// must observe a count no older than the last fully-inserted batch and
// no newer than the batches started. A stale cache entry surviving an
// epoch bump or a generation bump would return a count below the floor.
func TestRouterCacheCoherenceUnderIngestAndMove(t *testing.T) {
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
	// now answered through a warm cache — must match a full scan of the
	// combined truth, and a repeated ask (a guaranteed hit at the stable
	// epoch vector) must be byte-identical to the first.
	truth := combined(t, st, extra)
	testutil.CheckMatchesFullScan(t, s, truth, probes)
	for _, q := range probes {
		first := s.Execute(q)
		if second := s.Execute(q); !first.Equal(second) {
			t.Fatalf("stable-vector repeat diverged for %v: %+v vs %+v", q, first, second)
		}
	}
	if cs := s.Stats().Cache; cs.Hits == 0 {
		t.Fatalf("router cache never hit (stats %+v)", cs)
	}
}
