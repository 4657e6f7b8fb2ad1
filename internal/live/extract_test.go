package live

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestExtractionMovesRangeWithConcurrentIngest drives the migration
// primitive the way the sharded rebalancer does: prepare an extraction
// while writers keep inserting (into and out of the moving range), commit,
// and verify the store plus the moved set together hold every row exactly
// once.
func TestExtractionMovesRangeWithConcurrentIngest(t *testing.T) {
	st := testutil.SmallTaxi(6000, 301)
	work := testutil.SkewedQueries(st, 100, 302)
	idx := core.Build(st, work, smallConfig())
	s := Open(idx, nil, Config{MergeThreshold: 1 << 20})
	defer s.Close()

	lo, hi := st.MinMax(0)
	cut := lo + (hi-lo)/2

	ext, err := s.PrepareExtract(0, cut, hi)
	if err != nil {
		t.Fatal(err)
	}

	// Rows ingested after Prepare: half inside the moving range, half
	// outside. Commit must route them accordingly.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := lo + int64(i) // outside the moving range
				if (i+w)%2 == 0 {
					v = cut + int64(i) // inside
				}
				if err := s.Insert([]int64{v, v + 10, 1, 1, 1}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	totalBefore := s.Execute(query.NewCount()).Count
	moved, err := ext.Commit()
	ext.Release()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range moved {
		if row[0] < cut || row[0] > hi {
			t.Fatalf("moved row %d has dim0=%d outside [%d, %d]", i, row[0], cut, hi)
		}
	}
	after := s.Execute(query.NewCount()).Count
	if after+uint64(len(moved)) != totalBefore {
		t.Fatalf("rows lost or duplicated: %d remaining + %d moved != %d before",
			after, len(moved), totalBefore)
	}
	if got := s.Execute(query.NewCount(query.Filter{Dim: 0, Lo: cut, Hi: hi})).Count; got != 0 {
		t.Fatalf("store still serves %d in-range rows after commit", got)
	}

	// The store resumes normal life: maintenance unblocked, ingest works.
	if err := s.Insert([]int64{cut + 5, cut + 15, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Execute(query.NewCount(query.Filter{Dim: 0, Lo: cut, Hi: hi})).Count; got != 1 {
		t.Fatalf("post-extract insert not visible after flush: %d, want 1", got)
	}
}

// TestExtractionAbort checks Release without Commit leaves the store
// untouched and maintenance unblocked.
func TestExtractionAbort(t *testing.T) {
	st := testutil.SmallTaxi(3000, 311)
	idx := core.Build(st, testutil.SkewedQueries(st, 60, 312), smallConfig())
	s := Open(idx, nil, Config{MergeThreshold: 1 << 20})
	defer s.Close()

	before := s.Execute(query.NewCount()).Count
	epoch := s.Epoch()
	lo, hi := st.MinMax(0)
	ext, err := s.PrepareExtract(0, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	ext.Release()
	ext.Release() // idempotent
	if got := s.Execute(query.NewCount()).Count; got != before {
		t.Fatalf("aborted extraction changed the store: %d, want %d", got, before)
	}
	if got := s.Epoch(); got != epoch {
		t.Fatalf("aborted extraction advanced the epoch: %d -> %d", epoch, got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err) // would deadlock if Release leaked the maintenance lock
	}

	// HoldMaintenance pauses and resumes cleanly too.
	release := s.HoldMaintenance()
	release()
	release()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}
