// Tests of the observability wiring: metrics recorded by the Executor,
// LiveStore, and ShardedStore through one shared registry (traced runs
// answering exactly like untraced ones is internal/sharded's
// TestPipelineEquivalence).
package tsunami_test

import (
	"testing"

	tsunami "repro"
	"repro/internal/obs"
)

// TestExecutorMetrics checks the pool records queue, wave, and latency
// telemetry, and that an uninstrumented Executor still works (nil
// registry contract).
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
	if n := snap.Counters[obs.MExecTasks]; n != uint64(len(work)) {
		t.Fatalf("tasks %d want %d", n, len(work))
	}
	if h := snap.Hists[obs.MExecLatency]; h.Count() != uint64(len(work))+1 {
		t.Fatalf("latency observations %d want %d", h.Count(), len(work)+1)
	}
	// A wave is 8*Workers=16 queries, so the batch runs in ceil(n/16)
	// waves of at most 16 queries (quantiles report bucket upper bounds).
	waves := (len(work) + 15) / 16
	if h := snap.Hists[obs.MExecWaveSize]; h.Count() != uint64(waves) || h.Quantile(1) < 16 {
		t.Fatalf("wave size hist %d obs, max %g; want %d waves of <= 16", h.Count(), h.Quantile(1), waves)
	}
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
