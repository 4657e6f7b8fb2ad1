// Acceptance tests for the sharded serving mode, run against the public
// API. The core property: a ShardedStore is indistinguishable from an
// unsharded LiveStore over the same rows — every aggregate (COUNT, SUM,
// and the derived AVG) agrees, for every partitioner, under concurrent
// ingest (run with -race), and through the Executor's scatter-gather
// path.
package tsunami_test

import (
	"fmt"
	"sync"
	"testing"

	tsunami "repro"
	"repro/internal/testutil"
)

// shardedSetup builds a taxi table, its workload, and a ShardedStore.
func shardedSetup(t *testing.T, rows int, so tsunami.ShardedOptions) (*tsunami.Dataset, []tsunami.Query, *tsunami.ShardedStore) {
	t.Helper()
	ds := tsunami.GenerateTaxi(rows, 7)
	work := tsunami.WorkloadFor(ds, 30, 8)
	ss, err := tsunami.NewShardedStore(ds.Store, work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 32}, so)
	if err != nil {
		t.Fatal(err)
	}
	return ds, work, ss
}

// TestShardedEqualsUnshardedUnderIngest is the ISSUE 3 acceptance
// property: with writers streaming the same rows into a ShardedStore and
// an unsharded LiveStore concurrently with readers (no torn answers, no
// races), the two stores must agree on every aggregate once quiesced —
// for both the learned-range and hash partitioners.
func TestShardedEqualsUnshardedUnderIngest(t *testing.T) {
	for _, tc := range []struct {
		name string
		so   tsunami.ShardedOptions
	}{
		{"range", tsunami.ShardedOptions{Shards: 4, Learned: true, Live: tsunami.LiveOptions{MergeThreshold: 500}}},
		{"hash", tsunami.ShardedOptions{Shards: 3, Live: tsunami.LiveOptions{MergeThreshold: 500}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, work, ss := shardedSetup(t, 8000, tc.so)
			defer ss.Close()
			ls := tsunami.NewLiveStore(
				tsunami.New(ds.Store, work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 32}),
				nil, tsunami.LiveOptions{MergeThreshold: 500})
			defer ls.Close()
			oracle := testutil.NewOracle(ds.Store)

			const writers = 4
			var wg sync.WaitGroup
			var stopReaders sync.WaitGroup
			done := make(chan struct{})

			// Writers stream identical rows into both stores (fresh trips:
			// perturbed copies of existing rows, hitting all shards).
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]int64, ds.Store.NumDims())
					for i := 0; i < 120; i++ {
						batch := make([][]int64, 8)
						for k := range batch {
							row := append([]int64(nil), ds.Store.Row((w*3571+i*8+k)%ds.Store.NumRows(), buf)...)
							row[0] += 1_000_000 + int64(w) // distinguishable, spread across shards
							batch[k] = row
						}
						if err := ss.InsertBatch(batch); err != nil {
							t.Errorf("sharded writer %d: %v", w, err)
							return
						}
						if err := ls.InsertBatch(batch); err != nil {
							t.Errorf("live writer %d: %v", w, err)
							return
						}
						oracle.Add(batch...)
					}
				}()
			}
			// Readers hammer both stores while ingest and per-shard merges
			// run; answers race against ingest so they are not compared
			// here — the -race run proves the paths are data-race free.
			for r := 0; r < 4; r++ {
				r := r
				stopReaders.Add(1)
				go func() {
					defer stopReaders.Done()
					for k := r; ; k++ {
						select {
						case <-done:
							return
						default:
						}
						ss.Execute(work[k%len(work)])
						ls.Execute(work[k%len(work)])
					}
				}()
			}
			wg.Wait()
			close(done)
			stopReaders.Wait()

			// Quiesce both and compare everything.
			if err := ss.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := ls.Flush(); err != nil {
				t.Fatal(err)
			}
			st := ss.Stats()
			if st.BufferedRows != 0 {
				t.Fatalf("%d rows still buffered after Flush", st.BufferedRows)
			}
			if want := uint64(writers * 120 * 8); st.Inserts != want {
				t.Fatalf("sharded store counted %d inserts, want %d", st.Inserts, want)
			}
			probe := append(tsunami.WorkloadFor(ds, 20, 9), tsunami.Count())
			for i := 0; i < ds.Store.NumDims(); i++ {
				probe = append(probe, tsunami.Sum(i))
			}
			for _, q := range probe {
				a, b := ss.Execute(q), ls.Execute(q)
				if a.Count != b.Count || a.Sum != b.Sum || a.Avg() != b.Avg() {
					t.Errorf("sharded (%d, %d, %g) != unsharded (%d, %d, %g) on %s",
						a.Count, a.Sum, a.Avg(), b.Count, b.Sum, b.Avg(), q)
				}
			}
			// And both against the shared full-scan oracle.
			oracle.Check(t, ss, probe)
			oracle.Check(t, ls, probe)
			t.Logf("stats: %d queries, fan-out %.2f of %d shards",
				st.Queries, float64(st.ShardsScanned)/float64(st.Queries), st.Shards)
		})
	}
}

// TestShardedExecutorScatterGather routes a ShardedStore through the
// public Executor: a batch fanned across the pool and concurrent Execute
// callers must both match direct sequential execution.
func TestShardedExecutorScatterGather(t *testing.T) {
	_, work, ss := shardedSetup(t, 8000, tsunami.ShardedOptions{Shards: 4, Learned: true})
	defer ss.Close()

	want := make([]tsunami.Result, len(work))
	for i, q := range work {
		want[i] = ss.Execute(q)
	}

	// Batch path: queries fan across the pool, each routed per shard.
	ex := tsunami.NewExecutor(ss, tsunami.ExecutorOptions{Workers: 4})
	defer ex.Close()
	got := ex.ExecuteBatch(work)
	for i := range work {
		if got[i].Count != want[i].Count || got[i].Sum != want[i].Sum {
			t.Errorf("batch: query %d (%s): got (%d, %d), want (%d, %d)",
				i, work[i], got[i].Count, got[i].Sum, want[i].Count, want[i].Sum)
		}
	}

	// Concurrent callers: each query's surviving shards execute on its
	// caller's goroutine and the partials gather.
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range work {
				res := ex.Execute(q)
				if res.Count != want[i].Count || res.Sum != want[i].Sum {
					t.Errorf("reader %d: scatter-gather on %s: got (%d, %d), want (%d, %d)",
						r, q, res.Count, res.Sum, want[i].Count, want[i].Sum)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardedStoreIsIndex nails the public contract: a ShardedStore can
// stand anywhere an Index can.
func TestShardedStoreIsIndex(t *testing.T) {
	ds := tsunami.GenerateTaxi(3000, 17)
	ss, err := tsunami.NewShardedStore(ds.Store, nil, tsunami.Options{OptimizerIters: 1, MaxOptQueries: 16},
		tsunami.ShardedOptions{Shards: 2, Learned: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	var idx tsunami.Index = ss
	if got := idx.Execute(tsunami.Count()).Count; got != 3000 {
		t.Errorf("COUNT(*) = %d, want 3000", got)
	}
	if idx.Name() == "" || idx.SizeBytes() == 0 {
		t.Errorf("Name/SizeBytes not meaningful: %q, %d", idx.Name(), idx.SizeBytes())
	}
	if fmt.Sprint(ss.Stats().Partitioner) != "range(d0,2)" {
		t.Errorf("partitioner = %s", ss.Stats().Partitioner)
	}
}
