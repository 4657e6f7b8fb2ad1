// Concurrency contract tests: one shared index per test, no clones, many
// goroutines. Run with -race these prove the entire read path — Tsunami and
// every baseline — keeps no shared mutable per-query state, and that the
// Executor's batch path matches sequential execution.
package tsunami_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	tsunami "repro"
)

// concurrencySetup builds a dataset, a workload, and the FullScan ground
// truth for the probe queries.
func concurrencySetup(t *testing.T, rows int, seed int64) (*tsunami.Dataset, []tsunami.Query, []tsunami.Query, []uint64) {
	t.Helper()
	ds := tsunami.GenerateTaxi(rows, seed)
	work := tsunami.WorkloadFor(ds, 20, seed+1)
	probe := tsunami.WorkloadFor(ds, 8, seed+2)
	full := tsunami.NewFullScan(ds.Store)
	want := make([]uint64, len(probe))
	for i, q := range probe {
		want[i] = full.Execute(q).Count
	}
	return ds, work, probe, want
}

// hammer issues the probe queries from `readers` goroutines against one
// shared index and checks every answer: its count, sum and groups.
func hammer(t *testing.T, idx tsunami.Index, probe []tsunami.Query, want []tsunami.Result) {
	t.Helper()
	const readers = 8
	const passes = 4
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < passes; pass++ {
				for i, q := range probe {
					if got := idx.Execute(q); got.Count != want[i].Count || got.Sum != want[i].Sum || !slices.Equal(got.Groups, want[i].Groups) {
						errs <- q.String()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for q := range errs {
		t.Errorf("%s: concurrent reader got a wrong answer on %s", idx.Name(), q)
	}
}

// TestConcurrentExecuteSharedIndexes covers every index in the repository:
// a single shared instance each, queried by 8 goroutines with no cloning,
// flat and grouped (COUNT by passengers, SUM of fares by pickup zone).
func TestConcurrentExecuteSharedIndexes(t *testing.T) {
	ds, work, probe, _ := concurrencySetup(t, 12_000, 11)
	o := smallOptions()
	for i, q := range probe[:len(probe)/2] {
		if i%3 == 0 {
			probe = append(probe, tsunami.CountBy(6, q.Filters...), tsunami.SumBy(3, 7, q.Filters...))
		}
	}
	want := make([]tsunami.Result, len(probe))
	for i, q := range probe {
		if q.Grouped() {
			ds.Store.ScanRangeGroupedScalar(q, 0, ds.Store.NumRows(), false, &want[i])
		} else {
			ds.Store.ScanRangeScalar(q, 0, ds.Store.NumRows(), false, &want[i])
		}
	}

	indexes := []tsunami.Index{
		tsunami.New(ds.Store, work, o),
		tsunami.NewAugGridOnly(ds.Store, work, o),
		tsunami.NewGridTreeOnly(ds.Store, work, o),
		tsunami.NewFlood(ds.Store, work, o),
		tsunami.NewKDTree(ds.Store, work, 2048),
		tsunami.NewHyperoctree(ds.Store, 2048),
		tsunami.NewZOrder(ds.Store, 2048),
		tsunami.NewSingleDim(ds.Store, work, -1),
		tsunami.NewFullScan(ds.Store),
	}
	for _, idx := range indexes {
		idx := idx
		t.Run(idx.Name(), func(t *testing.T) {
			t.Parallel()
			hammer(t, idx, probe, want)
		})
	}
}

// TestExecuteBatchMatchesSequential is the Executor correctness test:
// batch results must be positionally identical to sequential Execute and
// to the FullScan ground truth, at several worker counts.
func TestExecuteBatchMatchesSequential(t *testing.T) {
	ds, work, probe, want := concurrencySetup(t, 10_000, 21)
	idx := tsunami.New(ds.Store, work, smallOptions())

	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		ex := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: workers})
		got := ex.ExecuteBatch(probe)
		if len(got) != len(probe) {
			t.Fatalf("workers=%d: got %d results for %d queries", workers, len(got), len(probe))
		}
		for i, q := range probe {
			if seq := idx.Execute(q); !got[i].Equal(seq) {
				t.Errorf("workers=%d query %s: batch %+v != sequential %+v", workers, q, got[i], seq)
			}
			if got[i].Count != want[i] {
				t.Errorf("workers=%d query %s: batch count %d != full scan %d", workers, q, got[i].Count, want[i])
			}
		}
		ex.Close()
		ex.Close() // Close is idempotent
	}
}

// TestExecutorBatchFromManyGoroutines checks the pool fair-shares between
// concurrent ExecuteBatch callers (a serving frontend's shape).
func TestExecutorBatchFromManyGoroutines(t *testing.T) {
	ds, work, probe, want := concurrencySetup(t, 8_000, 31)
	idx := tsunami.New(ds.Store, work, smallOptions())
	ex := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: 4})
	defer ex.Close()

	const callers = 6
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := ex.ExecuteBatch(probe)
			for i := range probe {
				if res[i].Count != want[i] {
					errs <- probe[i].String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for q := range errs {
		t.Errorf("concurrent batch caller got a wrong answer on %s", q)
	}
}

// TestExecutorAfterCloseIsSafe is the regression test for the post-Close
// contract: Execute and ExecuteBatch on a closed Executor are no-ops
// returning zero Results, not sends on a closed channel.
func TestExecutorAfterCloseIsSafe(t *testing.T) {
	ds, work, probe, _ := concurrencySetup(t, 6_000, 51)
	idx := tsunami.New(ds.Store, work, smallOptions())

	ex := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: 2})
	ex.Close()
	if got := ex.Execute(probe[0]); !got.Equal(tsunami.Result{}) {
		t.Errorf("Execute after Close = %+v, want zero", got)
	}
	res := ex.ExecuteBatch(probe)
	if len(res) != len(probe) {
		t.Fatalf("%d results for %d queries", len(res), len(probe))
	}
	for i, r := range res {
		if !r.Equal(tsunami.Result{}) {
			t.Errorf("batch result %d after Close = %+v, want zero", i, r)
		}
	}
	ex.Close() // still idempotent
}

// TestExecuteBatchWaves checks adaptive batch sizing: a batch much larger
// than one wave (8*Workers) is processed in pool-sized waves with results positionally
// identical to sequential execution.
func TestExecuteBatchWaves(t *testing.T) {
	ds, work, probe, _ := concurrencySetup(t, 8_000, 61)
	idx := tsunami.New(ds.Store, work, smallOptions())

	// 8 probes tiled to a 200-query batch against waves of 32.
	big := make([]tsunami.Query, 200)
	for i := range big {
		big[i] = probe[i%len(probe)]
	}
	ex := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: 4})
	defer ex.Close()
	got := ex.ExecuteBatch(big)
	if len(got) != len(big) {
		t.Fatalf("got %d results for %d queries", len(got), len(big))
	}
	for i, q := range big {
		if seq := idx.Execute(q); !got[i].Equal(seq) {
			t.Errorf("query %d (%s): wave batch %+v != sequential %+v", i, q, got[i], seq)
		}
	}
}

// TestExecutorOverLiveStore checks the serving composition: an Executor
// whose queries resolve through a LiveStore pick up epoch swaps — rows
// inserted (and merged) after the pool started are visible to later
// batches, with no pool restart.
func TestExecutorOverLiveStore(t *testing.T) {
	ds, work, probe, want := concurrencySetup(t, 8_000, 71)
	idx := tsunami.New(ds.Store, work, smallOptions())
	ls := tsunami.NewLiveStore(idx, nil, tsunami.LiveOptions{MergeThreshold: 64})
	defer ls.Close()

	// A LiveStore is an Index that resolves the current epoch per call;
	// NewExecutorSource is the kept synonym of NewExecutor, and both
	// compositions must track epochs.
	exIdx := tsunami.NewExecutor(ls, tsunami.ExecutorOptions{Workers: 4})
	defer exIdx.Close()
	exSrc := tsunami.NewExecutorSource(ls, tsunami.ExecutorOptions{Workers: 4})
	defer exSrc.Close()

	for name, ex := range map[string]*tsunami.Executor{"index": exIdx, "source": exSrc} {
		res := ex.ExecuteBatch(probe)
		for i := range probe {
			if res[i].Count != want[i] {
				t.Errorf("%s executor pre-insert on %s: %d, want %d", name, probe[i], res[i].Count, want[i])
			}
		}
	}

	// Insert rows matching probe[0] and wait for them through the pools.
	d := ds.Store.NumDims()
	target := probe[0]
	row := make([]int64, d)
	for j := 0; j < d; j++ {
		lo, _ := ds.Store.MinMax(j)
		row[j] = lo
	}
	for _, f := range target.Filters {
		row[f.Dim] = f.Lo
	}
	const extra = 100
	for i := 0; i < extra; i++ {
		if err := ls.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.Flush(); err != nil { // force the merge so a new epoch is live
		t.Fatal(err)
	}
	for name, ex := range map[string]*tsunami.Executor{"index": exIdx, "source": exSrc} {
		got := ex.ExecuteBatch([]tsunami.Query{target})[0].Count
		if got != want[0]+extra {
			t.Errorf("%s executor post-swap on %s: %d, want %d", name, target, got, want[0]+extra)
		}
	}
}
