// Cache-coherence oracle for the LiveStore result cache: under
// concurrent ingest (run with -race), every Execute — hit or miss — must
// return exactly what a fresh execution against the same epoch's
// immutable index returns. The epoch handle is the oracle: if
// Index() returns the same pointer before and after Execute, no publish
// intervened, so the answer is pinned.
package tsunami_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tsunami "repro"
)

func TestLiveCacheCoherenceUnderIngest(t *testing.T) {
	ds := tsunami.GenerateTaxi(4000, 7)
	work := tsunami.WorkloadFor(ds, 10, 8)
	idx := tsunami.New(ds.Store, work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 16})
	ls := tsunami.NewLiveStore(idx, work, tsunami.LiveOptions{
		CacheEntries:   512,
		MergeThreshold: 300, // merges publish too; the cache must survive them
	})
	defer ls.Close()

	// A small probe set, so readers re-ask the same queries and hit.
	probes := []tsunami.Query{
		tsunami.Count(),
		tsunami.Sum(1),
		work[0],
		work[len(work)/2],
	}

	var (
		stop     atomic.Bool
		verified atomic.Int64
		wg       sync.WaitGroup
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				runtime.Gosched() // keep the writer fed on single-core runners
				q := probes[(i+r)%len(probes)]
				epochIdx := ls.Index()
				res := ls.Execute(q)
				if ls.Index() != epochIdx {
					continue // a publish raced the read; the epoch is not pinned
				}
				want := epochIdx.Execute(q)
				if res.Count != want.Count || res.Sum != want.Sum {
					t.Errorf("reader %d: cached result diverged from its epoch: got {Count:%d Sum:%d}, want {Count:%d Sum:%d} for %v",
						r, res.Count, res.Sum, want.Count, want.Sum, q)
					return
				}
				verified.Add(1)
			}
		}(r)
	}

	// Writer: each batch bumps the epoch, invalidating every cached entry.
	for i := 0; i < 30; i++ {
		batch := make([][]int64, 4)
		for j := range batch {
			batch[j] = ds.Store.Row((4*i+j)%ds.Store.NumRows(), nil)
		}
		if err := ls.InsertBatch(batch); err != nil {
			t.Error(err)
			break
		}
	}
	// Ingest is over, so the epoch is stable: let readers verify against
	// it before stopping them.
	for deadline := time.Now().Add(5 * time.Second); verified.Load() < 50 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if verified.Load() == 0 {
		t.Fatal("no read ever pinned an epoch; the oracle checked nothing")
	}

	// Quiescent phase: ask every probe twice at a now-stable epoch — the
	// second answer is a guaranteed hit and must equal both the first
	// answer and the index's.
	for _, q := range probes {
		first := ls.Execute(q)
		second := ls.Execute(q)
		want := ls.Index().Execute(q)
		if !first.Equal(second) || first.Count != want.Count || first.Sum != want.Sum {
			t.Fatalf("stable-epoch mismatch for %v: first=%+v second=%+v want={Count:%d Sum:%d}",
				q, first, second, want.Count, want.Sum)
		}
	}
	if st := ls.Stats(); st.Cache.Hits == 0 {
		t.Fatalf("cache never hit; coherence was not exercised (stats %+v)", st.Cache)
	}
}
