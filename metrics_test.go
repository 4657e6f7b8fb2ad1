// Tests of the observability wiring: metrics recorded by the Executor,
// LiveStore, and ShardedStore through one shared registry (traced runs
// answering exactly like untraced ones is internal/sharded's
// TestPipelineEquivalence).
package tsunami_test

import (
	"io"
	"sync"
	"testing"

	tsunami "repro"
	"repro/internal/obs"
)

// TestExecutorMetrics checks the pool records its queue telemetry, and
// that an uninstrumented Executor still works (nil registry contract). A
// query's latency is the store's to record (TestLiveStoreMetrics).
func TestExecutorMetrics(t *testing.T) {
	ds := tsunami.GenerateTaxi(10_000, 1)
	work := tsunami.WorkloadFor(ds, 10, 2)
	idx := tsunami.New(ds.Store, work, smallOptions())

	m := tsunami.NewMetrics()
	ex := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: 2, Metrics: m})
	bare := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: 2})
	defer ex.Close()
	defer bare.Close()

	got := ex.ExecuteBatch(work)
	want := bare.ExecuteBatch(work)
	for i := range got {
		if got[i].Count != want[i].Count {
			t.Fatalf("query %d: instrumented %d vs bare %d", i, got[i].Count, want[i].Count)
		}
	}
	ex.Execute(work[0])

	snap := m.Snapshot()
	if h := snap.Hists[obs.MExecQueueWait]; h.Count() != uint64(len(work)) {
		t.Fatalf("queue wait observations %d want %d", h.Count(), len(work))
	}
	if d := snap.Gauges[obs.MExecQueueDepth]; d != 0 {
		t.Fatalf("queue depth %g after batch drained, want 0", d)
	}
}

// TestLiveStoreMetrics checks the query and ingest paths feed the shared
// schema plus tsunami_live_*, and that a Flush records a merge.
func TestLiveStoreMetrics(t *testing.T) {
	ds := tsunami.GenerateTaxi(10_000, 3)
	work := tsunami.WorkloadFor(ds, 10, 4)
	idx := tsunami.New(ds.Store, work, smallOptions())
	m := tsunami.NewMetrics()
	ls := tsunami.NewLiveStore(idx, work, tsunami.LiveOptions{Metrics: m, MergeThreshold: 1 << 30})
	defer ls.Close()

	for _, q := range work {
		ls.Execute(q)
	}
	row := make([]int64, ds.Store.NumDims())
	ds.Store.Row(0, row)
	if err := ls.InsertBatch([][]int64{row, row, row}); err != nil {
		t.Fatal(err)
	}
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}

	snap := m.Snapshot()
	if n := snap.Counters[obs.MQueries]; n != uint64(len(work)) {
		t.Fatalf("queries %d want %d", n, len(work))
	}
	if snap.Counters[obs.MScanRows] == 0 || snap.Counters[obs.MScanBytes] == 0 {
		t.Fatalf("rows/bytes scanned not recorded: %d/%d",
			snap.Counters[obs.MScanRows], snap.Counters[obs.MScanBytes])
	}
	if h := snap.Hists[obs.MQueryLatency]; h.Count() != uint64(len(work)) {
		t.Fatalf("query latency observations %d want %d", h.Count(), len(work))
	}
	if h := snap.Hists[obs.MLiveIngestLatency]; h.Count() != 1 {
		t.Fatalf("ingest latency observations %d want 1", h.Count())
	}
	if n := snap.Counters[obs.MLiveIngestRows]; n != 3 {
		t.Fatalf("ingest rows %d want 3", n)
	}
	if n := snap.Counters[obs.MLiveMerges]; n != 1 {
		t.Fatalf("merges %d want 1", n)
	}
	if h := snap.Hists[obs.MLiveMergeSeconds]; h.Count() != 1 {
		t.Fatalf("merge seconds observations %d want 1", h.Count())
	}
	// Buffered rows drained by the flush; the gauge reads the live level.
	if g := snap.Gauges[obs.MLiveBufferedRows]; g != 0 {
		t.Fatalf("buffered rows gauge %g after flush, want 0", g)
	}
	if g := snap.Gauges[obs.MLiveEpoch]; g < 3 {
		t.Fatalf("epoch gauge %g, want >= 3 (open + insert + merge)", g)
	}
}

// TestShardedStoreMetrics checks the router records fan-out and latency,
// shards share the unlabeled query-path instruments (aggregation by
// construction), and per-shard gauges stay distinguishable by label.
func TestShardedStoreMetrics(t *testing.T) {
	ds := tsunami.GenerateTaxi(12_000, 5)
	work := tsunami.WorkloadFor(ds, 10, 6)
	m := tsunami.NewMetrics()
	ss, err := tsunami.NewShardedStore(ds.Store, work, smallOptions(),
		tsunami.ShardedOptions{Shards: 3, Learned: true, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	for _, q := range work {
		ss.Execute(q)
	}
	st := ss.Stats()
	snap := m.Snapshot()

	if h := snap.Hists[obs.MShardedQueryLatency]; h.Count() != uint64(len(work)) {
		t.Fatalf("sharded latency observations %d want %d", h.Count(), len(work))
	}
	if h := snap.Hists[obs.MShardedFanout]; h.Count() != uint64(len(work)) {
		t.Fatalf("fanout observations %d want %d", h.Count(), len(work))
	}
	if n := snap.Counters[obs.MShardedShardsScanned]; n != st.ShardsScanned {
		t.Fatalf("shards scanned counter %d, Stats says %d", n, st.ShardsScanned)
	}
	if n := snap.Counters[obs.MShardedShardsPruned]; n != st.ShardsPruned {
		t.Fatalf("shards pruned counter %d, Stats says %d", n, st.ShardsPruned)
	}
	// The shard LiveStores share one tsunami_queries_total instance: its
	// value is the sum of shard executes = ShardsScanned.
	if n := snap.Counters[obs.MQueries]; n != st.ShardsScanned {
		t.Fatalf("shared query counter %d, want shard executes %d", n, st.ShardsScanned)
	}
	// Per-shard gauges are labeled; all shards must be present.
	for _, want := range []string{`{shard="0"}`, `{shard="1"}`, `{shard="2"}`} {
		if _, ok := snap.Gauges[obs.MLiveEpoch+want]; !ok {
			t.Fatalf("missing per-shard epoch gauge %s; gauges: %v", want, gaugeNames(snap))
		}
	}
	if _, ok := snap.Gauges[obs.MShardedSkew]; !ok {
		t.Fatal("missing skew gauge")
	}
}

func gaugeNames(s tsunami.MetricsSnapshot) []string {
	var names []string
	for n := range s.Gauges {
		names = append(names, n)
	}
	return names
}

// TestStatsAgreeWithRegistry checks that every count a store's Stats
// reports is the count its registry exports, after hits, misses,
// evictions, ingest, a Flush and a Snapshot(w) — and, on a ShardedStore,
// a Rebalance that migrates rows.
func TestStatsAgreeWithRegistry(t *testing.T) {
	ds := tsunami.GenerateTaxi(10_000, 7)
	work := tsunami.WorkloadFor(ds, 10, 8)
	// Rows past the end of dim 0, the sharded store's partition dim, so a
	// rebalance has rows to migrate.
	_, hi := ds.Store.MinMax(0)
	rows := make([][]int64, 3000)
	for i := range rows {
		rows[i] = make([]int64, ds.Store.NumDims())
		ds.Store.Row(i, rows[i])
		rows[i][0] = hi + 1 + int64(i)
	}
	// Each query twice: a miss that fills the cache, then a hit; 16 slots
	// for the workload's distinct queries force evictions.
	serve := func(ix tsunami.Index) {
		for _, q := range work {
			ix.Execute(q)
			ix.Execute(q)
		}
	}
	agree := func(t *testing.T, m *tsunami.Metrics, want map[string]uint64) {
		t.Helper()
		got := m.Snapshot().Counters
		for name, w := range want {
			if g, ok := got[name]; !ok || g != w {
				t.Errorf("%s = %d (exported %v), Stats says %d", name, g, ok, w)
			}
		}
	}

	t.Run("LiveStore", func(t *testing.T) {
		m := tsunami.NewMetrics()
		idx := tsunami.New(ds.Store, work, smallOptions())
		ls := tsunami.NewLiveStore(idx, nil, tsunami.LiveOptions{Metrics: m, CacheEntries: 16, MergeThreshold: 1 << 30})
		defer ls.Close()
		serve(ls)
		if err := ls.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		if err := ls.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ls.Snapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
		st, c := ls.Stats(), ls.CacheStats()
		if c.Hits == 0 || c.Misses == 0 || c.Evictions == 0 || st.Merges != 1 || st.Snapshots != 1 {
			t.Fatalf("the run did not exercise every count: %+v", st)
		}
		agree(t, m, map[string]uint64{
			obs.MQueries:         st.Queries,
			obs.MLiveIngestRows:  st.Inserts,
			obs.MLiveMerges:      st.Merges,
			obs.MLiveReoptimizes: st.Reoptimizations,
			obs.MLiveSnapshots:   st.Snapshots,
			obs.MCacheHits:       c.Hits,
			obs.MCacheMisses:     c.Misses,
			obs.MCacheEvictions:  c.Evictions,
		})
	})

	t.Run("ShardedStore", func(t *testing.T) {
		m := tsunami.NewMetrics()
		ss, err := tsunami.NewShardedStore(ds.Store, work, smallOptions(), tsunami.ShardedOptions{
			Shards: 3, Learned: true, Metrics: m, CacheEntries: 48,
			Live: tsunami.LiveOptions{MergeThreshold: 1 << 30, DisableShift: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		serve(ss)
		if err := ss.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		if err := ss.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ss.Rebalance(); err != nil {
			t.Fatal(err)
		}
		st := ss.Stats()
		if st.Cache.Hits == 0 || st.Cache.Evictions == 0 || st.Rebalances != 1 || st.RowsMigrated == 0 {
			t.Fatalf("the run did not exercise every count: %+v", st)
		}
		var queries, inserts uint64
		for _, sh := range st.PerShard {
			queries += sh.Queries
			inserts += sh.Inserts
		}
		agree(t, m, map[string]uint64{
			obs.MQueries:              queries,
			obs.MLiveIngestRows:       inserts,
			obs.MLiveMerges:           st.Merges,
			obs.MLiveReoptimizes:      st.Reoptimizations,
			obs.MLiveSnapshots:        st.Snapshots,
			obs.MCacheHits:            st.Cache.Hits,
			obs.MCacheMisses:          st.Cache.Misses,
			obs.MCacheEvictions:       st.Cache.Evictions,
			obs.MShardedShardsScanned: st.ShardsScanned,
			obs.MShardedShardsPruned:  st.ShardsPruned,
			obs.MShardedRebalances:    st.Rebalances,
			obs.MShardedRowsMigrated:  st.RowsMigrated,
		})
	})
}

// TestCountsAgreeUnderConcurrentClients serves from two clients at once
// through an Executor with admission over a caching, instrumented
// LiveStore, and checks that every count of a served query reads the
// number served: the store's queries, the cache's hits plus misses, the
// workload collector's queries and each objective's good plus bad, the
// admitted count and the latency histogram. These counters are striped
// across cache lines, so a lost or doubled add would show here.
func TestCountsAgreeUnderConcurrentClients(t *testing.T) {
	ds := tsunami.GenerateTaxi(10_000, 11)
	work := tsunami.WorkloadFor(ds, 10, 12)
	m := tsunami.NewMetrics()
	ws := tsunami.NewWorkloadStats(tsunami.WorkloadOptions{})
	ls := tsunami.NewLiveStore(tsunami.New(ds.Store, work, smallOptions()), nil, tsunami.LiveOptions{
		Metrics: m, Workload: ws, CacheEntries: 32, MergeThreshold: 1 << 30,
	})
	defer ls.Close()
	ex := tsunami.NewExecutor(ls, tsunami.ExecutorOptions{
		Workers: 2, Metrics: m,
		Admission: tsunami.AdmissionConfig{MaxInFlight: 64, MaxRows: uint64(ds.Store.NumRows())},
	})
	defer ex.Close()

	const clients, each = 2, 3000
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Mostly the first few queries (hits), some of the rest
				// (misses and evictions), as skewed traffic asks.
				q := work[(i*(c+1))%8]
				if i%5 == 0 {
					q = work[(i/5+c)%len(work)]
				}
				if _, err := ex.Serve(q, tsunami.PriorityNormal); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const served = clients * each
	st, wsnap, snap := ls.Stats(), ws.Snapshot(), m.Snapshot()
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
		t.Fatalf("the run did not both hit and miss: %+v", st.Cache)
	}
	for name, got := range map[string]uint64{
		"Stats().Queries":          st.Queries,
		"cache hits + misses":      st.Cache.Hits + st.Cache.Misses,
		"workload queries":         wsnap.Queries,
		obs.MQueries:               snap.Counters[obs.MQueries],
		obs.MAdmissionAdmitted:     snap.Counters[obs.MAdmissionAdmitted],
		obs.MQueryLatency + " obs": snap.Hists[obs.MQueryLatency].Count(),
	} {
		if got != served {
			t.Errorf("%s = %d, want %d served", name, got, served)
		}
	}
	if len(wsnap.SLO) == 0 {
		t.Fatal("no objectives")
	}
	for _, slo := range wsnap.SLO {
		if slo.Good+slo.Bad != served {
			t.Errorf("objective %gs: good %d + bad %d, want %d served", slo.LatencySeconds, slo.Good, slo.Bad, served)
		}
	}
}
