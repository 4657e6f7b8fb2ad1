package sharded_test

import (
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tsunami "repro"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sharded"
	"repro/internal/testutil"
)

// pipeline is what every layer under test offers: an index whose one
// execution entry point takes the how (traced or not) as an argument, and is its plan step followed by the plan's execution.
type pipeline interface {
	index.Index
	ExecuteWith(q query.Query, x index.Exec) colstore.ScanResult
	Plan(q query.Query, x index.Exec) index.Plan
}

// estimate is what a plan of q on the layer must be priced at: the
// layer's EstimateCost, or for a sharded store — which has none — the
// sum of the routed shards'.
func estimate(src pipeline, q query.Query) (rows, bytes uint64) {
	switch l := src.(type) {
	case *core.Tsunami:
		return l.EstimateCost(q)
	case *live.Store:
		return l.EstimateCost(q)
	case *sharded.Store:
		for _, id := range l.Partitioner().Shards(q, nil) {
			r, b := l.Shard(id).EstimateCost(q)
			rows += r
			bytes += b
		}
	}
	return rows, bytes
}

// layer is one serving shape and the rows a full scan of it must see.
type layer struct {
	name  string
	src   pipeline
	truth *colstore.Store
	// stages are the stage names a trace of this layer shows, in order;
	// "scan" reads "scan+group" for a grouped query, and "merge?" is
	// present only for one (a flat query has no groups to assemble).
	stages []string
}

var (
	coreStages    = []string{"plan", "scan", "delta", "merge?"}
	liveStages    = append([]string{"epoch"}, coreStages...)
	shardedStages = []string{"route", "scan", "merge"}
)

// probeQueries mixes the four query classes — flat COUNT, flat SUM,
// grouped COUNT, grouped SUM — interleaved so any window of the list
// holds all of them. The first grouped three pin one accumulator regime
// each on SmallTaxi: pax has 6 values (byte-code for COUNT, dense cells
// for SUM), t a million (hash).
func probeQueries(t *testing.T, truth *colstore.Store, seed int64) []query.Query {
	t.Helper()
	flat := append([]query.Query{query.NewCount(), query.NewSum(2), query.NewSum(0)},
		testutil.RandomQueries(truth, 12, seed)...)
	grouped := append([]query.Query{query.NewCount().By(4), query.NewSum(3).By(4), query.NewCount().By(0)},
		testutil.RandomGroupedQueries(truth, 12, seed+1)...)
	var qs []query.Query
	classes := make(map[[2]bool]int)
	for i := range flat {
		qs = append(qs, flat[i], grouped[i])
		classes[[2]bool{false, flat[i].Agg == query.Sum}]++
		classes[[2]bool{true, grouped[i].Agg == query.Sum}]++
	}
	if len(classes) != 4 {
		t.Fatalf("probe queries cover %d of the 4 flat/grouped × COUNT/SUM classes", len(classes))
	}
	return qs
}

// checkTrace asserts what a trace must hold no matter when it was
// captured: totals that agree with the result, exactly the layer's
// stages, stage durations that fit inside Total, the accumulator regime
// named on a grouped scan, region spans whose scanned and matched rows sum
// to the result's, and — for a scatter-gather trace — per-shard spans that
// account exactly for the result's scan volume, each valid shard at most
// once (a discarded seqlock attempt must not leak spans), with every region
// span tagged by one of them.
func checkTrace(t *testing.T, l layer, q query.Query, res colstore.ScanResult, tr *obs.QueryTrace) {
	t.Helper()
	if tr.Query != q.String() || tr.Rows != res.PointsScanned || tr.Bytes != res.BytesTouched {
		t.Errorf("%s: trace of %s says (%q, rows %d, bytes %d), result scanned (%d, %d)",
			l.name, q, tr.Query, tr.Rows, tr.Bytes, res.PointsScanned, res.BytesTouched)
	}
	var want []string
	for _, name := range l.stages {
		switch {
		case name == "scan" && q.Grouped():
			want = append(want, "scan+group")
		case name == "merge?":
			if q.Grouped() {
				want = append(want, "merge")
			}
		default:
			want = append(want, name)
		}
	}
	var got []string
	var sum time.Duration
	for _, st := range tr.Stages {
		got = append(got, st.Name)
		sum += st.Duration
		if st.Name == "scan+group" && !strings.Contains(st.Detail, res.Regime.String()) {
			t.Errorf("%s: scan+group stage of %s says %q, the result's regime is %v", l.name, q, st.Detail, res.Regime)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: trace of %s has stages %v, want %v", l.name, q, got, want)
	}
	if sum > tr.Total {
		t.Errorf("%s: stages of %s sum to %v, more than the total %v", l.name, q, sum, tr.Total)
	}
	if rendered := tr.String(); !strings.Contains(rendered, tr.Query) || !strings.Contains(rendered, want[0]) {
		t.Errorf("%s: trace rendering incomplete:\n%s", l.name, rendered)
	}
	var scanned, matched uint64
	for _, sp := range tr.Regions {
		scanned += sp.Scanned
		matched += sp.Matched
	}
	if len(tr.Regions) == 0 || scanned != res.PointsScanned || matched != res.Count {
		t.Errorf("%s: %d region spans of %s sum to (scanned %d, matched %d), the result is (%d, %d)",
			l.name, len(tr.Regions), q, scanned, matched, res.PointsScanned, res.Count)
	}
	ss, ok := l.src.(*sharded.Store)
	if !ok {
		return
	}
	var rows, bytes uint64
	seen := make(map[int]bool)
	for _, sp := range tr.Shards {
		if sp.Shard < 0 || sp.Shard >= ss.NumShards() || seen[sp.Shard] {
			t.Errorf("%s: trace of %s has a span for shard %d (of %d; seen before: %v)", l.name, q, sp.Shard, ss.NumShards(), seen[sp.Shard])
		}
		seen[sp.Shard] = true
		rows += sp.Rows
		bytes += sp.Bytes
	}
	if rows != res.PointsScanned || bytes != res.BytesTouched {
		t.Errorf("%s: shard spans of %s sum to (rows %d, bytes %d), the result says (%d, %d)",
			l.name, q, rows, bytes, res.PointsScanned, res.BytesTouched)
	}
	for _, sp := range tr.Regions {
		if !seen[sp.Shard] {
			t.Errorf("%s: trace of %s has region %d tagged with shard %d, which has no span", l.name, q, sp.Region, sp.Shard)
		}
	}
}

// checkOracle asserts res is q's exact answer over truth: the aggregate
// of a full scan and, for a grouped query, the naive group-by's groups,
// with Count and Sum totalling them.
func checkOracle(t *testing.T, l layer, q query.Query, res colstore.ScanResult) {
	t.Helper()
	flat := q
	flat.GroupBy = 0
	if want := index.NewFullScan(l.truth).Execute(flat); res.Count != want.Count || res.Sum != want.Sum {
		t.Errorf("%s: %s = (count %d, sum %d), full scan says (%d, %d)", l.name, q, res.Count, res.Sum, want.Count, want.Sum)
	}
	if !q.Grouped() {
		if res.Groups != nil || res.Regime != colstore.RegimeNone {
			t.Errorf("%s: flat %s came back with groups %v (regime %v)", l.name, q, res.Groups, res.Regime)
		}
		return
	}
	if want := testutil.GroupedOracle(l.truth, q); !slices.Equal(res.Groups, want.Groups) || res.GroupDim != q.GroupDim() {
		t.Errorf("%s: %s groups by d%d\n got %v\nwant %v", l.name, q, res.GroupDim, res.Groups, want.Groups)
	}
	if res.TotalCount() != res.Count {
		t.Errorf("%s: %s groups total %d rows, Count says %d", l.name, q, res.TotalCount(), res.Count)
	}
}

// checkEquivalence drives every query through the layer four ways —
// inline, through an Executor, planned, priced and executed, and traced —
// and asserts the inline answer is the oracle's and the others are
// bit-for-bit the same (aggregates, groups, accounting, regime), and a
// plan's price is the layer's estimate. Which untraced way runs first
// rotates per query, so behind a result cache each of them takes its
// turn being the miss that executes.
func checkEquivalence(t *testing.T, l layer, pool *tsunami.Executor, qs []query.Query) {
	t.Helper()
	for i, q := range qs {
		planned := func() colstore.ScanResult {
			rows, bytes := estimate(l.src, q)
			p := l.src.Plan(q, index.Exec{})
			if r, b := p.Cost(); r != rows || b != bytes {
				t.Errorf("%s: plan of %s is priced (%d, %d), its estimate is (%d, %d)", l.name, q, r, b, rows, bytes)
			}
			return p.Execute()
		}
		ways := []struct {
			name string
			run  func() colstore.ScanResult
		}{
			{"inline", func() colstore.ScanResult { return l.src.ExecuteWith(q, index.Exec{}) }},
			{"through an Executor", func() colstore.ScanResult { return pool.Execute(q) }},
			{"planned, priced, executed", planned},
		}
		got := make([]colstore.ScanResult, len(ways))
		for k := range ways {
			w := (i + k) % len(ways)
			got[w] = ways[w].run()
		}
		checkOracle(t, l, q, got[0])
		for w := 1; w < len(ways); w++ {
			if !got[w].Equal(got[0]) {
				t.Errorf("%s: %s with %s = %+v, inline %+v", l.name, q, ways[w].name, got[w], got[0])
			}
		}
		var tr obs.QueryTrace
		if traced := l.src.ExecuteWith(q, index.Exec{Trace: &tr}); !traced.Equal(got[0]) {
			t.Errorf("%s: %s traced = %+v, untraced %+v", l.name, q, traced, got[0])
		}
		checkTrace(t, l, q, got[0], &tr)
	}
}

func newPool(l layer) *tsunami.Executor {
	return tsunami.NewExecutor(l.src, tsunami.ExecutorOptions{Workers: 4})
}

// TestPipelineEquivalence is the one equivalence test of the execution
// pipeline: {flat COUNT, flat SUM, grouped COUNT, grouped SUM} × {inline,
// through an Executor, planned-priced-executed, traced} through a bare
// index with buffered rows (one of them beyond every accumulator
// window), a single-region index, a caching LiveStore, and a
// ShardedStore in the middle of a rebalance — all against the full-scan
// oracles.
func TestPipelineEquivalence(t *testing.T) {
	st := testutil.SmallTaxi(8000, 451)
	work := testutil.SkewedQueries(st, 100, 452)
	extra := append(sharded.SkewedRows(st, 3000, 453), []int64{5, 9, 12, 300, 9}) // pax 9: outside every window
	truth := testutil.CombineRows(st, extra)
	qs := probeQueries(t, truth, 454)

	t.Run("bare index with buffered rows", func(t *testing.T) {
		idx, err := core.Build(st, work, sharded.SmallConfig()).CopyWithInserts(extra)
		if err != nil {
			t.Fatal(err)
		}
		l := layer{"bare index", idx, truth, coreStages}
		pool := newPool(l)
		defer pool.Close()
		checkEquivalence(t, l, pool, qs)
		for q, want := range map[int]colstore.GroupRegime{1: colstore.RegimeByteCode, 3: colstore.RegimeDense, 5: colstore.RegimeHash} {
			if got := idx.Execute(qs[q]).Regime; got != want {
				t.Errorf("%s ran on regime %v, want %v", qs[q], got, want)
			}
		}
	})

	// One region (AugGridOnly): every query routes to the one grid.
	t.Run("single-region index", func(t *testing.T) {
		cfg := sharded.SmallConfig()
		cfg.Variant = core.AugGridOnly
		idx := core.Build(truth, work, cfg)
		if n := idx.IndexStats().NumLeafRegions; n != 1 {
			t.Fatalf("AugGridOnly built %d regions, want 1", n)
		}
		l := layer{"single-region index", idx, truth, coreStages}
		pool := newPool(l)
		defer pool.Close()
		checkEquivalence(t, l, pool, qs)
	})

	t.Run("caching LiveStore", func(t *testing.T) {
		// No optimized workload, so no shift-triggered re-optimization,
		// and no threshold merge: either would move scan volume between
		// two runs that must compare bit for bit.
		ls := live.Open(core.Build(st, work, sharded.SmallConfig()), nil, live.Config{
			MergeThreshold: 1 << 30,
			CacheEntries:   256,
			Metrics:        obs.NewRegistry(),
		})
		defer ls.Close()
		if err := ls.InsertBatch(extra); err != nil {
			t.Fatal(err)
		}
		l := layer{"caching LiveStore", ls, truth, liveStages}
		pool := newPool(l)
		defer pool.Close()
		checkEquivalence(t, l, pool, qs)
		if cs := ls.CacheStats(); cs.Hits == 0 || cs.Misses == 0 {
			t.Errorf("cache saw %d hits and %d misses; both paths should have run", cs.Hits, cs.Misses)
		}
	})

	// Traces and answers must stay exact while a rebalance migrates rows:
	// concurrent traced readers hammer the store through the whole
	// migration (their attempts overlap commit windows and retry), and the
	// move hook runs the full equivalence from inside a move's persistence
	// protocol, where a cut migration is declared but not yet committed,
	// or committed and being persisted. The hook runs outside the seqlock
	// commit window, so executing from it must not deadlock.
	t.Run("ShardedStore mid-rebalance", func(t *testing.T) {
		ss, err := sharded.Open(st, nil, sharded.SmallConfig(), sharded.Config{
			Shards:      3,
			Learned:     true,
			SnapshotDir: filepath.Join(t.TempDir(), "snap"),
			Live:        live.Config{MergeThreshold: 1 << 30}, // no merge may move scan volume between two runs
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		if err := ss.InsertBatch(extra); err != nil {
			t.Fatal(err)
		}
		l := layer{"ShardedStore", ss, truth, shardedStages}
		pool := newPool(l)
		defer pool.Close()
		checkEquivalence(t, l, pool, qs)

		hooks := 0
		ss.SetMoveHook(func(stage string) {
			at := layer{"ShardedStore mid-move (" + stage + ")", ss, truth, shardedStages}
			window := make([]query.Query, 8)
			for i := range window {
				window[i] = qs[(hooks*len(window)+i)%len(qs)]
			}
			hooks++
			checkEquivalence(t, at, pool, window)
		})
		var stop atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				at := layer{"ShardedStore under concurrent rebalance", ss, truth, shardedStages}
				for k := r; !stop.Load(); k++ {
					q := qs[k%len(qs)]
					var tr obs.QueryTrace
					res := ss.ExecuteWith(q, index.Exec{Trace: &tr})
					checkOracle(t, at, q, res)
					checkTrace(t, at, q, res, &tr)
				}
			}()
		}
		if err := ss.Rebalance(); err != nil {
			t.Fatal(err)
		}
		stop.Store(true)
		wg.Wait()
		if ss.Stats().RowsMigrated == 0 {
			t.Error("rebalance moved no rows — the pipeline was not challenged")
		}
		if hooks == 0 {
			t.Error("the move hook never fired — nothing ran mid-move")
		}
		checkEquivalence(t, l, pool, qs)
	})
}

// TestShardedBudgetSumsRoutedShards checks admission over a ShardedStore:
// a query is priced at the sum of the routed shards' plans, refused one
// row under that and admitted at it, and a refused query reaches no shard
// — nothing is scanned, counted or cached anywhere.
func TestShardedBudgetSumsRoutedShards(t *testing.T) {
	st := testutil.SmallTaxi(6000, 461)
	work := testutil.SkewedQueries(st, 100, 462)
	ss, err := sharded.Open(st, work, sharded.SmallConfig(), sharded.Config{
		Shards:       4,
		Learned:      true,
		CacheEntries: 64,
		Live:         live.Config{DisableShift: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	lo, hi := st.MinMax(0)
	narrow := query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: lo + (hi-lo)/3})
	if n := len(ss.Partitioner().Shards(narrow, nil)); n == ss.NumShards() {
		t.Fatalf("%s routes to all %d shards; the test needs one the router prunes", narrow, n)
	}
	serve := func(q query.Query, maxRows uint64) (colstore.ScanResult, error) {
		ex := tsunami.NewExecutor(ss, tsunami.ExecutorOptions{Workers: 2, Admission: tsunami.AdmissionConfig{MaxRows: maxRows}})
		defer ex.Close()
		return ex.Serve(q, tsunami.PriorityNormal)
	}
	for _, q := range []query.Query{narrow, query.NewSum(2), query.NewCount().By(4)} {
		ids := ss.Partitioner().Shards(q, nil)
		var rows uint64
		for _, id := range ids {
			r, _ := ss.Shard(id).EstimateCost(q)
			rows += r
		}
		before := ss.Stats()
		if _, err := serve(q, rows-1); !errors.Is(err, tsunami.ErrOverBudget) {
			t.Fatalf("%s under MaxRows = %d, one below its routed shards' plans: want ErrOverBudget, got %v", q, rows-1, err)
		}
		after := ss.Stats()
		if after.Queries != before.Queries || after.ShardsScanned != before.ShardsScanned || after.Cache != before.Cache {
			t.Errorf("refused %s reached the store: %+v, before %+v", q, after, before)
		}
		for i := range after.PerShard {
			if a, b := after.PerShard[i], before.PerShard[i]; a.Queries != b.Queries || a.Cache != b.Cache {
				t.Errorf("refused %s reached shard %d: %+v, before %+v", q, i, a, b)
			}
		}
		res, err := serve(q, rows)
		if err != nil {
			t.Fatalf("%s at MaxRows = %d, its routed shards' plans: %v", q, rows, err)
		}
		checkOracle(t, layer{name: "ShardedStore under admission", truth: st}, q, res)
		if got := ss.Stats().ShardsScanned - after.ShardsScanned; got != uint64(len(ids)) {
			t.Errorf("admitted %s scanned %d shards, routed to %d", q, got, len(ids))
		}
	}
}
