// Acceptance tests for grouped aggregates (GROUP BY) across the serving
// stack, run against the public API. Every path — the plain index, the
// Executor (admission included), a LiveStore
// with buffered-but-unmerged rows, and a ShardedStore through a forced
// rebalance — must agree exactly with a naive full-scan group-by oracle:
// same group keys, same per-group count and sum.
package tsunami_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	tsunami "repro"
	"repro/internal/testutil"
)

func TestGroupedMatchesOracleOnIndex(t *testing.T) {
	table := testutil.SmallTaxi(4000, 7)
	work := testutil.RandomQueries(table, 30, 8)
	idx := tsunami.New(table, work, tsunami.Options{OptimizerIters: 1, MaxOptQueries: 16})

	qs := testutil.RandomGroupedQueries(table, 60, 9)
	testutil.CheckGroupedMatchesFullScan(t, "TsunamiIndex", idx.ExecuteGrouped, table, qs)
}

func TestGroupedExecutorAndAdmission(t *testing.T) {
	table := testutil.SmallTaxi(3000, 11)
	work := testutil.RandomQueries(table, 20, 12)
	idx := tsunami.New(table, work, tsunami.Options{OptimizerIters: 1, MaxOptQueries: 16})

	ex := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: 4})
	defer ex.Close()
	qs := testutil.RandomGroupedQueries(table, 30, 13)
	testutil.CheckGroupedMatchesFullScan(t, "Executor",
		func(q tsunami.Query) tsunami.GroupedResult {
			res, err := ex.ServeGrouped(q, tsunami.PriorityNormal)
			if err != nil {
				t.Fatalf("ServeGrouped(%s): %v", q, err)
			}
			return res
		}, table, qs)

	// A flat query through the grouped entry point is a usage error, not
	// a silent empty result.
	if _, err := ex.ServeGrouped(tsunami.Count(), tsunami.PriorityNormal); !errors.Is(err, tsunami.ErrNotGrouped) {
		t.Errorf("flat query through ServeGrouped: err=%v, want ErrNotGrouped", err)
	}

	// ServeGrouped enforces the same plan-time budgets as Serve: a
	// full-scan grouped query cannot fit a one-row budget.
	strict := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{
		Admission: tsunami.AdmissionConfig{MaxRows: 1},
	})
	defer strict.Close()
	if _, err := strict.ServeGrouped(tsunami.CountBy(4), tsunami.PriorityNormal); !errors.Is(err, tsunami.ErrOverBudget) {
		t.Errorf("ServeGrouped under 1-row budget: err=%v, want ErrOverBudget", err)
	}
	// Within budget it answers exactly.
	relaxed := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{
		Admission: tsunami.AdmissionConfig{MaxRows: 1 << 40},
	})
	defer relaxed.Close()
	res, err := relaxed.ServeGrouped(tsunami.CountBy(4), tsunami.PriorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	want := testutil.GroupedOracle(table, tsunami.CountBy(4))
	if len(res.Groups) != len(want.Groups) || res.TotalCount() != want.TotalCount() {
		t.Errorf("ServeGrouped: %d groups / %d rows, want %d / %d",
			len(res.Groups), res.TotalCount(), len(want.Groups), want.TotalCount())
	}
}

// TestGroupedLiveStoreBufferedRows checks grouped queries through a
// LiveStore whose delta buffers hold unmerged rows: buffered rows must be
// visible to grouped aggregates exactly like clustered ones, before and
// after the background merge, and the epoch-keyed result cache must never
// serve a pre-insert grouped answer after the epoch advanced.
func TestGroupedLiveStoreBufferedRows(t *testing.T) {
	seed := int64(21)
	rng := rand.New(rand.NewSource(seed))
	table := testutil.SmallTaxi(3000, seed)
	work := testutil.RandomQueries(table, 20, seed+1)
	idx := tsunami.New(table, work, tsunami.Options{OptimizerIters: 1, MaxOptQueries: 16})
	ls := tsunami.NewLiveStore(idx, work, tsunami.LiveOptions{
		MergeThreshold: 1 << 30, // keep rows buffered: the delta path is the subject
		CacheEntries:   256,
	})
	defer ls.Close()
	oracle := testutil.NewOracle(table)
	qs := testutil.RandomGroupedQueries(table, 25, seed+2)

	// Execute twice per query: the second answer comes from the result
	// cache and must be byte-equal (clone-on-get keeps entries isolated).
	exec := func(q tsunami.Query) tsunami.GroupedResult {
		first := ls.ExecuteGrouped(q)
		second := ls.ExecuteGrouped(q)
		if len(first.Groups) != len(second.Groups) || first.TotalCount() != second.TotalCount() {
			t.Fatalf("cached grouped answer diverged for %s: %d/%d groups, %d/%d rows",
				q, len(first.Groups), len(second.Groups), first.TotalCount(), second.TotalCount())
		}
		return second
	}

	oracle.CheckGrouped(t, "LiveStore", exec, qs)

	// Ingest in rounds; every round's rows stay buffered (threshold is
	// huge) and must appear in grouped answers immediately.
	for round := 0; round < 3; round++ {
		batch := make([][]int64, 200)
		for k := range batch {
			d := 10 + rng.Int63n(900)
			batch[k] = []int64{
				rng.Int63n(1_000_000), rng.Int63n(1_000_000),
				d, 250 + d*5/2 + rng.Int63n(200), 1 + rng.Int63n(6),
			}
		}
		if err := ls.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		oracle.Add(batch...)
		if ls.Index().NumBuffered() == 0 {
			t.Fatal("rows merged despite the huge threshold; the buffered path is untested")
		}
		oracle.CheckGrouped(t, fmt.Sprintf("LiveStore(round %d)", round), exec, qs)
	}

	// After folding everything the answers must not change.
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	oracle.CheckGrouped(t, "LiveStore(flushed)", exec, qs)
	if hits := ls.CacheStats().Hits; hits == 0 {
		t.Error("grouped result cache never hit")
	}
}

// TestGroupedShardedUnderRebalance checks grouped queries through a
// ShardedStore while forced rebalances race concurrent grouped readers
// and writers (run under -race): at every quiesce point the scatter-
// gathered grouped merge must equal the full-scan oracle.
func TestGroupedShardedUnderRebalance(t *testing.T) {
	seed := int64(31)
	rng := rand.New(rand.NewSource(seed))
	const timeSpan = 500_000
	n := 4000
	cols := make([][]int64, 4)
	for j := range cols {
		cols[j] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		t0 := rng.Int63n(timeSpan)
		cols[0][i] = t0
		cols[1][i] = t0/2 + rng.Int63n(1000)
		cols[2][i] = rng.Int63n(8) // low-cardinality group dimension
		cols[3][i] = rng.Int63n(100_000)
	}
	table, err := tsunami.NewTable(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	work := testutil.RandomQueries(table, 30, seed+1)
	ss, err := tsunami.NewShardedStore(table, work,
		tsunami.Options{OptimizerIters: 1, MaxOptQueries: 16},
		tsunami.ShardedOptions{
			Shards:       3,
			Learned:      true,
			Live:         tsunami.LiveOptions{MergeThreshold: 400},
			CacheEntries: 256,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	oracle := testutil.NewOracle(table)
	gqs := testutil.RandomGroupedQueries(table, 20, seed+2)

	// Grouped readers hammer the store through migrations and merges;
	// their racing answers are not compared (the quiesce points do the
	// exact checks) — the -race run proves the grouped scatter-gather and
	// seqlock-retry paths are data-race free.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := r; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				ss.ExecuteGrouped(gqs[k%len(gqs)])
			}
		}()
	}
	defer func() {
		close(done)
		readers.Wait()
	}()

	// Skewed ingest drives imbalance; a forced rebalance races it.
	clock := int64(timeSpan)
	for phase := 0; phase < 2; phase++ {
		var writers sync.WaitGroup
		for w := 0; w < 2; w++ {
			wrng := rand.New(rand.NewSource(seed + int64(phase*2+w+10)))
			writers.Add(1)
			go func() {
				defer writers.Done()
				for b := 0; b < 15; b++ {
					batch := make([][]int64, 16)
					for k := range batch {
						t0 := clock + int64(b*16+k+1)
						batch[k] = []int64{
							t0, t0/2 + wrng.Int63n(1000),
							wrng.Int63n(8), wrng.Int63n(100_000),
						}
					}
					if err := ss.InsertBatch(batch); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					oracle.Add(batch...)
				}
			}()
		}
		if err := ss.Rebalance(); err != nil {
			t.Fatalf("phase %d rebalance: %v", phase, err)
		}
		writers.Wait()
		clock += 1000

		if err := ss.Flush(); err != nil {
			t.Fatal(err)
		}
		oracle.CheckGrouped(t, fmt.Sprintf("ShardedStore(phase %d)", phase), ss.ExecuteGrouped,
			testutil.RandomGroupedQueries(oracle.Snapshot(), 20, seed+int64(phase)+100))
	}

	// Final check after one more rebalance on the quiesced store.
	if err := ss.Rebalance(); err != nil {
		t.Fatal(err)
	}
	final := testutil.RandomGroupedQueries(oracle.Snapshot(), 20, seed+200)
	oracle.CheckGrouped(t, "ShardedStore(final)", ss.ExecuteGrouped, final)
	if ss.Stats().RowsMigrated == 0 {
		t.Error("rebalancing never migrated rows; the mid-migration grouped path was untested")
	}
}

// TestGroupedSlowQueryExemplar pins that the slow-query log's exemplar
// of a grouped query is a trace of that grouped query — re-run through
// the pipeline it was served on, so the scan+group stage names the
// accumulator regime — and that capturing it records nothing: the
// capture must not feed back into the collector.
func TestGroupedSlowQueryExemplar(t *testing.T) {
	table := testutil.SmallTaxi(3000, 41)
	work := testutil.RandomQueries(table, 20, 42)
	opts := tsunami.Options{OptimizerIters: 1, MaxOptQueries: 16}
	slow := tsunami.CountBy(4)

	check := func(name string, wl *tsunami.WorkloadStats, serve func(tsunami.Query) tsunami.Result) {
		t.Helper()
		// Arm the adaptive threshold off real served queries: it arms after
		// 64 samples, and the collector samples 1 query in 8.
		const arming = 8 * 64
		for i := 0; i < arming; i++ {
			serve(work[i%len(work)])
		}
		// Under -race one of the arming queries can trip the freshly armed
		// threshold; wait out its capture's 250ms rate-limit window, or it
		// would swallow the exemplar this test is about.
		time.Sleep(250 * time.Millisecond)
		wl.Record(slow, 5*time.Second, 3000, 3000, 24000)
		snap := wl.Snapshot()
		if snap.Queries != arming+1 {
			t.Errorf("%s: collector recorded %d queries, want the %d served — an exemplar capture fed back into it", name, snap.Queries, arming+1)
		}
		for _, e := range snap.Slow {
			if e.Query != slow.String() {
				continue
			}
			if !strings.Contains(e.Trace, "scan+group") || !strings.Contains(e.Trace, "regime bytecode") {
				t.Errorf("%s: a grouped slow query's exemplar is not a grouped trace:\n%s", name, e.Trace)
			}
			return
		}
		t.Errorf("%s: the slow grouped query is not in the slow log: %+v", name, snap.Slow)
	}

	lwl := tsunami.NewWorkloadStats(tsunami.WorkloadOptions{})
	ls := tsunami.NewLiveStore(tsunami.New(table, work, opts), work, tsunami.LiveOptions{Workload: lwl})
	defer ls.Close()
	check("LiveStore", lwl, ls.Execute)

	swl := tsunami.NewWorkloadStats(tsunami.WorkloadOptions{})
	ss, err := tsunami.NewShardedStore(table, work, opts, tsunami.ShardedOptions{Shards: 2, Workload: swl})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	check("ShardedStore", swl, ss.Execute)
}

// TestExecutorAnswersGroupedQueries pins that the Executor's plain entry
// points answer a grouped query with its groups — a mixed flat+grouped
// ExecuteBatch equals sequential Execute and the oracle through a
// caching LiveStore, and the flat answers do not evict or overwrite the
// grouped ones cached under the same filters — and that a baseline
// index answers grouped queries with their groups too.
func TestExecutorAnswersGroupedQueries(t *testing.T) {
	table := testutil.SmallTaxi(3000, 51)
	work := testutil.RandomQueries(table, 20, 52)
	idx := tsunami.New(table, work, tsunami.Options{OptimizerIters: 1, MaxOptQueries: 16})
	// No optimized workload, so no shift detection: a re-optimization
	// between two asks would fold the buffered rows and move the scan
	// accounting the bit-for-bit comparisons below include.
	ls := tsunami.NewLiveStore(idx, nil, tsunami.LiveOptions{MergeThreshold: 1 << 30, CacheEntries: 256})
	defer ls.Close()
	oracle := testutil.NewOracle(table)
	extra := [][]int64{{5, 9, 12, 300, 9}, {7, 30, 40, 350, 2}}
	if err := ls.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}
	oracle.Add(extra...)

	var mixed []tsunami.Query
	for _, q := range testutil.RandomQueries(table, 20, 53) {
		mixed = append(mixed, q, q.By(4)) // the same filters flat and grouped: the same cache key but for GroupBy
	}
	ex := tsunami.NewExecutor(ls, tsunami.ExecutorOptions{
		Workers:   4,
		Admission: tsunami.AdmissionConfig{MaxRows: 1 << 40},
	})
	defer ex.Close()
	for round := 0; round < 2; round++ { // the second round is served from the cache
		batch := ex.ExecuteBatch(mixed)
		for i, q := range mixed {
			if seq := ex.Execute(q); !batch[i].Equal(seq) {
				t.Fatalf("batch answer to %s = %+v, sequential %+v", q, batch[i], seq)
			}
			if served, err := ex.Serve(q, tsunami.PriorityNormal); err != nil || !served.Equal(batch[i]) {
				t.Fatalf("Serve(%s) = %+v, %v; batch %+v", q, served, err, batch[i])
			}
			if !q.Grouped() && batch[i].Groups != nil {
				t.Fatalf("flat %s answered with groups %v", q, batch[i].Groups)
			}
		}
		// The oracle asks for each query's answer; hand it the batch's
		// (and, for the probes it adds itself, a fresh one).
		answers := make(map[string]tsunami.Result, len(mixed))
		for i, q := range mixed {
			answers[q.String()] = batch[i]
		}
		lookup := func(q tsunami.Query) tsunami.Result {
			if res, ok := answers[q.String()]; ok {
				return res
			}
			return ex.Execute(q)
		}
		oracle.Check(t, answerIndex(lookup), everyOther(mixed, 0))
		oracle.CheckGrouped(t, "ExecuteBatch", lookup, everyOther(mixed, 1))
	}

	baseline := tsunami.NewKDTree(table, work, 0)
	kd := tsunami.NewExecutor(baseline, tsunami.ExecutorOptions{})
	defer kd.Close()
	if got, want := kd.Execute(work[0]), baseline.Execute(work[0]); !got.Equal(want) {
		t.Errorf("Execute on a baseline index = %+v, want %+v", got, want)
	}
	testutil.CheckGroupedMatchesFullScan(t, "ServeGrouped on a baseline index",
		func(q tsunami.Query) tsunami.GroupedResult {
			res, err := kd.ServeGrouped(q, tsunami.PriorityNormal)
			if err != nil {
				t.Fatalf("ServeGrouped(%s) on a baseline index: %v", q, err)
			}
			return res
		}, table, []tsunami.Query{tsunami.CountBy(4), work[0].By(4)})
}

// answerIndex presents a function from queries to answers as an Index.
type answerIndex func(tsunami.Query) tsunami.Result

func (f answerIndex) Name() string                           { return "ExecuteBatch" }
func (f answerIndex) Execute(q tsunami.Query) tsunami.Result { return f(q) }
func (f answerIndex) SizeBytes() uint64                      { return 0 }
func (f answerIndex) Plan(q tsunami.Query, _ tsunami.Exec) tsunami.Plan {
	return funcPlan(func() tsunami.Result { return f(q) })
}

// everyOther returns qs[from], qs[from+2], ...
func everyOther(qs []tsunami.Query, from int) []tsunami.Query {
	var out []tsunami.Query
	for i := from; i < len(qs); i += 2 {
		out = append(out, qs[i])
	}
	return out
}
