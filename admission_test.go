// Admission-control tests: the Executor's Serve path must shed at the
// per-priority in-flight watermarks (never queue past them), reject
// over-budget queries at plan time before anything scans, and degrade to
// plain Execute when admission is off.
package tsunami_test

import (
	"errors"
	"sync"
	"testing"

	tsunami "repro"
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
