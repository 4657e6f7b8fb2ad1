package core

import (
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/testutil"
)

// TestSharedIndexExecutesConcurrently is the concurrency contract test: one
// built Tsunami, no clones, many goroutines issuing queries at once. Run
// under -race it also proves the read path keeps no shared mutable state.
func TestSharedIndexExecutesConcurrently(t *testing.T) {
	st := testutil.SmallTaxi(10000, 1)
	work := testutil.SkewedQueries(st, 150, 2)
	idx := Build(st, work, smallConfig(FullTsunami))
	probe := testutil.RandomQueries(st, 60, 3)

	// Precompute expected answers single-threaded.
	full := index.NewFullScan(st)
	want := make([]uint64, len(probe))
	for i, q := range probe {
		want[i] = full.Execute(q).Count
	}

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 5; pass++ {
				for i, q := range probe {
					if got := idx.Execute(q).Count; got != want[i] {
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
		t.Errorf("concurrent reader got a wrong answer on %s", q)
	}
}
