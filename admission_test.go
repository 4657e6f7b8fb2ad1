// Admission-control tests: the Executor's Serve path must shed at the
// per-priority in-flight watermarks (never queue past them), reject
// over-budget queries at plan time before anything scans, and degrade to
// plain Execute when admission is off.
package tsunami_test

import (
	"errors"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	tsunami "repro"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// blockingIndex parks every Execute until released, so tests can hold a
// known number of queries in flight deterministically.
type blockingIndex struct {
	entered chan struct{} // one receive per Execute that has started
	release chan struct{} // closed to let every Execute return
}

func newBlockingIndex() *blockingIndex {
	return &blockingIndex{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *blockingIndex) Name() string      { return "blocking" }
func (b *blockingIndex) SizeBytes() uint64 { return 0 }
func (b *blockingIndex) Execute(q tsunami.Query) tsunami.Result {
	b.entered <- struct{}{}
	<-b.release
	return tsunami.Result{Count: 1}
}

func TestServeWithoutAdmissionIsExecute(t *testing.T) {
	bi := newBlockingIndex()
	close(bi.release) // never block
	ex := tsunami.NewExecutor(bi, tsunami.ExecutorOptions{Workers: 1})
	defer ex.Close()
	res, err := ex.Serve(tsunami.Count(), tsunami.PriorityNormal)
	if err != nil || res.Count != 1 {
		t.Fatalf("Serve without admission: res=%+v err=%v", res, err)
	}
}

func TestServeShedsAtInFlightCap(t *testing.T) {
	bi := newBlockingIndex()
	ex := tsunami.NewExecutor(bi, tsunami.ExecutorOptions{
		Workers:   1,
		Admission: tsunami.AdmissionConfig{MaxInFlight: 2},
	})
	defer ex.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ex.Serve(tsunami.Count(), tsunami.PriorityInteractive); err != nil {
				t.Errorf("occupying query rejected: %v", err)
			}
		}()
	}
	<-bi.entered
	<-bi.entered // both slots are now provably in flight

	res, err := ex.Serve(tsunami.Count(), tsunami.PriorityInteractive)
	if !errors.Is(err, tsunami.ErrShed) {
		t.Fatalf("at capacity, want ErrShed, got res=%+v err=%v", res, err)
	}
	if !res.Equal(tsunami.Result{}) {
		t.Fatalf("shed query must return a zero Result, got %+v", res)
	}

	close(bi.release)
	wg.Wait()
	// Slots drained: Serve admits again.
	if _, err := ex.Serve(tsunami.Count(), tsunami.PriorityNormal); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestServePriorityWatermarks holds 7 interactive queries in flight
// against MaxInFlight=8 and checks each class's watermark: batch (cap/2
// = 4) and normal (cap - cap/8 = 7) must shed, interactive (full cap)
// must still be admitted.
func TestServePriorityWatermarks(t *testing.T) {
	bi := newBlockingIndex()
	ex := tsunami.NewExecutor(bi, tsunami.ExecutorOptions{
		Workers:   1,
		Admission: tsunami.AdmissionConfig{MaxInFlight: 8},
	})
	defer ex.Close()

	var wg sync.WaitGroup
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ex.Serve(tsunami.Count(), tsunami.PriorityInteractive); err != nil {
				t.Errorf("occupying query rejected: %v", err)
			}
		}()
	}
	for i := 0; i < 7; i++ {
		<-bi.entered
	}

	if _, err := ex.Serve(tsunami.Count(), tsunami.PriorityBatch); !errors.Is(err, tsunami.ErrShed) {
		t.Fatalf("batch at 7/8 in flight: want ErrShed, got %v", err)
	}
	if _, err := ex.Serve(tsunami.Count(), tsunami.PriorityNormal); !errors.Is(err, tsunami.ErrShed) {
		t.Fatalf("normal at 7/8 in flight: want ErrShed, got %v", err)
	}
	admitted := make(chan error, 1)
	go func() {
		_, err := ex.Serve(tsunami.Count(), tsunami.PriorityInteractive)
		admitted <- err
	}()
	<-bi.entered // the interactive query started executing: it was admitted
	close(bi.release)
	wg.Wait()
	if err := <-admitted; err != nil {
		t.Fatalf("interactive at 7/8 in flight must be admitted: %v", err)
	}
}

// TestServePlanTimeBudgets checks row/byte budgets against a real index:
// the estimates come from the Grid Tree range plans, so a full-table
// query is rejected under a budget one row (or eight bytes) short of the
// table and admitted at exactly the table's cost.
func TestServePlanTimeBudgets(t *testing.T) {
	const rows = 5000
	ds := tsunami.GenerateTaxi(rows, 1)
	work := tsunami.WorkloadFor(ds, 10, 2)
	idx := tsunami.New(ds.Store, work, tsunami.Options{OptimizerIters: 2, MaxOptQueries: 16})

	full := tsunami.Count()   // plans exactly `rows` rows, 0 filter columns
	fullSum := tsunami.Sum(1) // same rows, 8 bytes/row for the aggregate column
	rowBudget := uint64(rows)

	over := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{
		Workers:   1,
		Admission: tsunami.AdmissionConfig{MaxRows: rowBudget - 1},
	})
	defer over.Close()
	if _, err := over.Serve(full, tsunami.PriorityInteractive); !errors.Is(err, tsunami.ErrOverBudget) {
		t.Fatalf("full-table query under MaxRows=%d: want ErrOverBudget, got %v", rowBudget-1, err)
	}

	at := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{
		Workers:   1,
		Admission: tsunami.AdmissionConfig{MaxRows: rowBudget},
	})
	defer at.Close()
	if res, err := at.Serve(full, tsunami.PriorityNormal); err != nil || res.Count != rows {
		t.Fatalf("full-table query at MaxRows=%d: res=%+v err=%v", rowBudget, res, err)
	}

	byteBudget := uint64(rows * 8)
	overB := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{
		Workers:   1,
		Admission: tsunami.AdmissionConfig{MaxBytes: byteBudget - 1},
	})
	defer overB.Close()
	if _, err := overB.Serve(fullSum, tsunami.PriorityNormal); !errors.Is(err, tsunami.ErrOverBudget) {
		t.Fatalf("full-table SUM under MaxBytes=%d: want ErrOverBudget, got %v", byteBudget-1, err)
	}
	atB := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{
		Workers:   1,
		Admission: tsunami.AdmissionConfig{MaxBytes: byteBudget},
	})
	defer atB.Close()
	if _, err := atB.Serve(fullSum, tsunami.PriorityNormal); err != nil {
		t.Fatalf("full-table SUM at MaxBytes=%d: %v", byteBudget, err)
	}
}

// TestServeBudgetsOverCachingStore checks the cached-answer shortcut in
// the cost estimate cannot launder a rejected query: an over-budget query
// is never executed, so never cached, so rejected again on its second
// Serve — while an in-budget one is admitted (unplanned) as a hit.
func TestServeBudgetsOverCachingStore(t *testing.T) {
	const rows = 5000
	ds := tsunami.GenerateTaxi(rows, 1)
	idx := tsunami.New(ds.Store, tsunami.WorkloadFor(ds, 10, 2), tsunami.Options{OptimizerIters: 2, MaxOptQueries: 16})
	ls := tsunami.NewLiveStore(idx, nil, tsunami.LiveOptions{CacheEntries: 64})
	defer ls.Close()
	ex := tsunami.NewExecutor(ls, tsunami.ExecutorOptions{
		Workers:   1,
		Admission: tsunami.AdmissionConfig{MaxRows: rows - 1},
	})
	defer ex.Close()

	for ask := 1; ask <= 2; ask++ {
		if _, err := ex.Serve(tsunami.Count(), tsunami.PriorityNormal); !errors.Is(err, tsunami.ErrOverBudget) {
			t.Fatalf("ask %d of the full-table query under MaxRows=%d: want ErrOverBudget, got %v", ask, rows-1, err)
		}
	}
	if cs := ls.CacheStats(); cs.Entries != 0 {
		t.Fatalf("a rejected query reached the cache: %+v", cs)
	}

	lo, _ := ds.Store.MinMax(0)
	narrow := tsunami.Count(tsunami.Filter{Dim: 0, Lo: lo, Hi: lo})
	first, err := ex.Serve(narrow, tsunami.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ex.Serve(narrow, tsunami.PriorityNormal)
	if err != nil || !second.Equal(first) {
		t.Fatalf("second ask: res=%+v err=%v, want %+v", second, err, first)
	}
	if cs := ls.CacheStats(); cs.Hits != 1 {
		t.Fatalf("second ask was not a cache hit: %+v", cs)
	}
}

// smallTaxi builds the 5000-row Taxi index the serving tests share.
func smallTaxi() (*tsunami.Dataset, *tsunami.TsunamiIndex) {
	ds := tsunami.GenerateTaxi(5000, 1)
	return ds, tsunami.New(ds.Store, tsunami.WorkloadFor(ds, 10, 2), tsunami.Options{OptimizerIters: 2, MaxOptQueries: 16})
}

// TestServeAfterCloseIsAnError: a closed Executor computes nothing, so
// Serve must say so rather than return a zero count as if it were the
// answer — with admission off and on, and without counting the query as
// admitted. Execute keeps its documented zero Result.
func TestServeAfterCloseIsAnError(t *testing.T) {
	_, idx := smallTaxi()
	for _, adm := range []tsunami.AdmissionConfig{{}, {MaxInFlight: 8, MaxRows: 5000}} {
		reg := tsunami.NewMetrics()
		ex := tsunami.NewExecutor(idx, tsunami.ExecutorOptions{Workers: 1, Metrics: reg, Admission: adm})
		ex.Close()
		if res, err := ex.Serve(tsunami.Count(), tsunami.PriorityNormal); !errors.Is(err, tsunami.ErrClosed) || !res.Equal(tsunami.Result{}) {
			t.Errorf("admission %+v: Serve after Close = (%+v, %v), want ErrClosed", adm, res, err)
		}
		if n := reg.Snapshot().Counters[obs.MAdmissionAdmitted]; n != 0 {
			t.Errorf("admission %+v: a query served after Close was counted as admitted (%d)", adm, n)
		}
		if res := ex.Execute(tsunami.Count()); !res.Equal(tsunami.Result{}) {
			t.Errorf("Execute after Close = %+v, want the zero Result", res)
		}
	}
}

// heldStore is a LiveStore whose next planned query, once armed, parks in
// Execute until released: a query provably in flight, which does its real
// work once let go.
type heldStore struct {
	*tsunami.LiveStore
	arm              atomic.Bool
	entered, release chan struct{}
}

func (h *heldStore) Plan(q tsunami.Query, x tsunami.Exec) tsunami.Plan {
	p := h.LiveStore.Plan(q, x)
	if h.arm.CompareAndSwap(true, false) {
		return heldPlan{p, h}
	}
	return p
}

type heldPlan struct {
	tsunami.Plan
	h *heldStore
}

func (p heldPlan) Execute() tsunami.Result {
	p.h.entered <- struct{}{}
	<-p.h.release
	return p.Plan.Execute()
}

// TestServeRefusalsLeaveNoTrace: a query refused over budget or shed
// leaves the caching LiveStore under the Executor exactly as it found it
// — no counted query, no cache hit, miss or entry, no store metric, no
// workload statistic — and its plan goes back to the pool: 10 000
// refusals leave the heap flat, and a refusal allocates only its error.
func TestServeRefusalsLeaveNoTrace(t *testing.T) {
	ds, idx := smallTaxi()
	reg := tsunami.NewMetrics()
	ws := tsunami.NewWorkloadStats(tsunami.WorkloadOptions{})
	ls := tsunami.NewLiveStore(idx, nil, tsunami.LiveOptions{CacheEntries: 64, Metrics: reg, Workload: ws})
	defer ls.Close()
	hs := &heldStore{LiveStore: ls, entered: make(chan struct{}), release: make(chan struct{})}
	ex := tsunami.NewExecutor(hs, tsunami.ExecutorOptions{
		Workers:   1,
		Admission: tsunami.AdmissionConfig{MaxInFlight: 1, MaxRows: 4999},
	})
	defer ex.Close()

	lo, _ := ds.Store.MinMax(0)
	cached := tsunami.Count(tsunami.Filter{Dim: 0, Lo: lo, Hi: lo})
	fresh := tsunami.Count(tsunami.Filter{Dim: 0, Lo: lo, Hi: lo + 1})
	for ask := 0; ask < 2; ask++ { // a miss, then a hit
		if _, err := ex.Serve(cached, tsunami.PriorityNormal); err != nil {
			t.Fatal(err)
		}
	}
	stats, queries, metrics := ls.Stats(), ws.Snapshot().Queries, reg.Snapshot()
	check := func(when string) {
		t.Helper()
		if got := ls.Stats(); got != stats {
			t.Errorf("%s: store stats moved from %+v to %+v", when, stats, got)
		}
		if got := ws.Snapshot().Queries; got != queries {
			t.Errorf("%s: workload stats recorded %d queries, want %d", when, got, queries)
		}
		got := reg.Snapshot()
		if !maps.Equal(got.Counters, metrics.Counters) {
			t.Errorf("%s: store counters moved from %v to %v", when, metrics.Counters, got.Counters)
		}
		for name, h := range got.Hists {
			if h.Count() != metrics.Hists[name].Count() {
				t.Errorf("%s: %s recorded %d observations, want %d", when, name, h.Count(), metrics.Hists[name].Count())
			}
		}
	}

	over := tsunami.Count() // plans the whole table: over MaxRows
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < 10_000; i++ {
		if _, err := ex.Serve(over, tsunami.PriorityNormal); !errors.Is(err, tsunami.ErrOverBudget) {
			t.Fatalf("refusal %d: want ErrOverBudget, got %v", i, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if grew := int64(m1.HeapInuse) - int64(m0.HeapInuse); grew > 1<<20 {
		t.Errorf("10 000 refusals grew the heap in use by %d bytes", grew)
	}
	if !testutil.RaceEnabled { // sync.Pool drops pooled plans under -race
		// The error is four: its text, its wrapper, and the boxed estimate
		// and budget. An unreleased plan would make the pools allocate
		// fresh ones.
		if n := testing.AllocsPerRun(100, func() { ex.Serve(over, tsunami.PriorityNormal) }); n > 4 {
			t.Errorf("a refused Serve allocates %.0f times, want <= 4 (its error alone)", n)
		}
	}
	check("over budget")

	hs.arm.Store(true)
	held := make(chan error, 1)
	go func() {
		_, err := ex.Serve(fresh, tsunami.PriorityInteractive)
		held <- err
	}()
	<-hs.entered // one query in flight: MaxInFlight is reached
	for _, q := range []tsunami.Query{cached, fresh} {
		if _, err := ex.Serve(q, tsunami.PriorityNormal); !errors.Is(err, tsunami.ErrShed) {
			t.Fatalf("%s with a query in flight: want ErrShed, got %v", q, err)
		}
	}
	check("shed")
	close(hs.release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if got := ls.Stats(); got.Queries != stats.Queries+1 || got.Cache.Misses != stats.Cache.Misses+1 {
		t.Errorf("the held query was not counted once as a miss: %+v, before %+v", got, stats)
	}
}

// TestServeAllocs pins what Serve with admission on costs in allocations
// over a caching LiveStore, beyond building the query: nothing for a flat
// hit, the result's groups for a grouped hit, and two for a flat miss
// (the cache entry). Planning once must not add any.
func TestServeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops pooled plans under -race")
	}
	ds, idx := smallTaxi()
	ls := tsunami.NewLiveStore(idx, nil, tsunami.LiveOptions{CacheEntries: 4096})
	defer ls.Close()
	ex := tsunami.NewExecutor(ls, tsunami.ExecutorOptions{
		Workers:   2,
		Admission: tsunami.AdmissionConfig{MaxInFlight: 64, MaxRows: 5000},
	})
	defer ex.Close()
	lo, _ := ds.Store.MinMax(0)
	f := tsunami.Filter{Dim: 0, Lo: lo, Hi: lo + 1000}
	hot, groupedHot := tsunami.Count(f), tsunami.CountBy(4, f)
	misses := make([]tsunami.Query, 101) // AllocsPerRun runs once more than asked
	for i := range misses {
		misses[i] = tsunami.Count(tsunami.Filter{Dim: 0, Lo: lo + int64(i), Hi: lo + 100_000})
	}
	i := 0
	for _, c := range []struct {
		name string
		run  func()
		max  float64
	}{
		{"flat hit", func() { ex.Serve(hot, tsunami.PriorityNormal) }, 0},
		{"grouped hit", func() { ex.ServeGrouped(groupedHot, tsunami.PriorityNormal) }, 1},
		{"flat miss", func() { ex.Serve(misses[i], tsunami.PriorityNormal); i++ }, 2},
	} {
		ex.Serve(hot, tsunami.PriorityNormal)
		ex.Serve(groupedHot, tsunami.PriorityNormal)
		if n := testing.AllocsPerRun(len(misses)-1, c.run); n > c.max {
			t.Errorf("a %s through Serve allocates %.0f times, want <= %.0f", c.name, n, c.max)
		}
	}
}
