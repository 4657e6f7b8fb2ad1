package live

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/testutil"
)

func smallConfig() core.Config {
	return core.Config{
		Grid: auggrid.OptimizeConfig{
			Eval:     auggrid.EvalConfig{SampleSize: 1024, MaxQueries: 30},
			MaxCells: 1 << 12,
			MaxIters: 2,
		},
		MinRowsForGrid: 256,
	}
}

// shiftedQuery builds a query type absent from the optimized workload
// (testutil.SkewedQueries filters dims 0 and 1; this filters dims 2 and 3),
// so the detector sees it as novel.
func shiftedQuery(st *colstore.Store, k int64) query.Query {
	lo2, hi2 := st.MinMax(2)
	lo3, hi3 := st.MinMax(3)
	w2 := (hi2 - lo2) / 4
	w3 := (hi3 - lo3) / 4
	a := lo2 + (k*37)%(hi2-lo2-w2+1)
	b := lo3 + (k*53)%(hi3-lo3-w3+1)
	return query.NewCount(
		query.Filter{Dim: 2, Lo: a, Hi: a + w2},
		query.Filter{Dim: 3, Lo: b, Hi: b + w3},
	)
}

// TestLiveConcurrentReadWriteWithMaintenance is the acceptance test for
// the epoch-based serving mode: 4 writer goroutines and 4 reader
// goroutines run against one LiveStore until at least one background
// merge and one shift-triggered re-optimization have completed under
// them. Readers continuously check a monotonicity invariant (a fixed
// query's count never decreases: inserts only add matches and
// maintenance never loses rows). After quiescing, every answer must
// equal a full scan and an offline-rebuilt index over the same rows.
func TestLiveConcurrentReadWriteWithMaintenance(t *testing.T) {
	const (
		writers = 4
		readers = 4
	)
	st := testutil.SmallTaxi(8000, 1)
	work := testutil.SkewedQueries(st, 120, 2)
	idx := core.Build(st, work, smallConfig())

	s := Open(idx, work, Config{
		MergeThreshold: 500,
	})

	probes := work[:4] // original-type queries, also used for monotonicity
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writers: each owns its slice of inserted rows (perturbed copies of
	// existing rows, so they land across regions), paced so maintenance
	// interleaves with ingest rather than trailing it.
	inserted := make([][][]int64, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int64, st.NumDims())
			for i := 0; !stop.Load() && i < 3000; i += 4 {
				batch := make([][]int64, 0, 4)
				for k := 0; k < 4; k++ {
					src := st.Row((w*2711+i+k)%st.NumRows(), buf)
					row := append([]int64(nil), src...)
					row[0]++ // perturb so rows are distinguishable from originals
					batch = append(batch, row)
					inserted[w] = append(inserted[w], row)
				}
				if err := s.InsertBatch(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Readers: issue a 3:1 mix of novel-type queries (driving the shift
	// detector) and original probes (checked for monotonic counts).
	readerErrs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make([]uint64, len(probes))
			for k := int64(0); !stop.Load(); k++ {
				if k%4 != 3 {
					s.Execute(shiftedQuery(st, k*int64(readers)+int64(r)))
					continue
				}
				i := int(k/4) % len(probes)
				got := s.Execute(probes[i]).Count
				if got < last[i] {
					readerErrs <- probes[i].String()
					return
				}
				last[i] = got
			}
		}()
	}

	// Let the fleet run until both maintenance kinds completed under it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats := s.Stats()
		if stats.Merges >= 1 && stats.Reoptimizations >= 1 {
			break
		}
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("maintenance did not complete under load: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(readerErrs)
	for q := range readerErrs {
		t.Errorf("reader saw a non-monotonic count on %s", q)
	}

	// Quiesce: fold everything into the clustered layout.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().BufferedRows; got != 0 {
		t.Fatalf("%d rows still buffered after quiesce", got)
	}

	// Offline references over the same rows: the shared full-scan oracle
	// and a rebuilt Tsunami index.
	var all [][]int64
	for _, rows := range inserted {
		all = append(all, rows...)
	}
	combined := testutil.CombineRows(st, all)
	rebuilt := core.Build(combined, work, smallConfig())

	check := append(append([]query.Query(nil), probes...), testutil.RandomQueries(st, 60, 3)...)
	for k := int64(0); k < 10; k++ {
		check = append(check, shiftedQuery(st, k))
	}
	testutil.CheckMatchesFullScan(t, s, combined, check)
	for _, q := range check {
		got := s.Execute(q)
		ref := rebuilt.Execute(q)
		if got.Count != ref.Count || got.Sum != ref.Sum {
			t.Errorf("post-quiesce vs offline rebuild on %s: (%d, %d), want (%d, %d)",
				q, got.Count, got.Sum, ref.Count, ref.Sum)
		}
	}

	t.Logf("final stats: %+v", s.Stats())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(make([]int64, st.NumDims())); err == nil {
		t.Error("Insert after Close should fail")
	}
	if err := s.Flush(); err == nil {
		t.Error("Flush after Close should fail")
	}
}

// TestLiveRecoverMidStream is the crash-recovery test: a snapshot taken
// while rows are buffered but not yet merged must restore those rows.
func TestLiveRecoverMidStream(t *testing.T) {
	st := testutil.SmallTaxi(6000, 11)
	work := testutil.SkewedQueries(st, 100, 12)
	idx := core.Build(st, work, smallConfig())

	// MergeThreshold high enough that nothing merges: rows stay in delta
	// buffers, the state a crash is most likely to lose.
	s := Open(idx, nil, Config{MergeThreshold: 1 << 20})
	var rows [][]int64
	for i := 0; i < 57; i++ {
		row := []int64{9_100_000 + int64(i), 9_100_050, 2, 2, 2}
		rows = append(rows, row)
		if err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Snapshots; got != 1 {
		t.Errorf("manual snapshot not counted: %d, want 1", got)
	}
	snapData := append([]byte(nil), snap.Bytes()...) // reading Recover drains snap
	// Rows inserted after the snapshot are lost by the "crash".
	if err := s.Insert([]int64{9_200_000, 9_200_000, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(&snap, nil, Config{MergeThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().BufferedRows; got != 57 {
		t.Fatalf("recovered %d buffered rows, want 57", got)
	}
	q := query.NewCount(query.Filter{Dim: 0, Lo: 9_100_000, Hi: 9_199_999})
	if got := r.Execute(q).Count; got != 57 {
		t.Errorf("recovered count = %d, want 57", got)
	}
	// The recovered store resumes normal life: more inserts, then a merge
	// that folds snapshot-buffered and new rows together.
	if err := r.Insert([]int64{9_100_900, 9_100_950, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().BufferedRows; got != 0 {
		t.Errorf("%d rows buffered after flush", got)
	}
	q2 := query.NewCount(query.Filter{Dim: 0, Lo: 9_100_000, Hi: 9_299_999})
	if got := r.Execute(q2).Count; got != 58 {
		t.Errorf("post-merge count = %d, want 58", got)
	}
	if got := r.Index().Store().NumRows(); got != 6058 {
		t.Errorf("clustered rows = %d, want 6058", got)
	}

	// Recovering with a threshold already exceeded must merge on its own,
	// even if no further insert ever arrives to trip the check.
	r2, err := Recover(bytes.NewReader(snapData), nil, Config{MergeThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for r2.Stats().BufferedRows != 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovery merge of over-threshold buffered rows never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := r2.Execute(q).Count; got != 57 {
		t.Errorf("recovery-merged count = %d, want 57", got)
	}
}

// TestLivePeriodicSnapshot checks the background snapshot loop and the
// final snapshot on Close, then recovers from the file on disk.
func TestLivePeriodicSnapshot(t *testing.T) {
	st := testutil.SmallTaxi(4000, 21)
	work := testutil.SkewedQueries(st, 80, 22)
	idx := core.Build(st, work, smallConfig())

	path := filepath.Join(t.TempDir(), "live.idx")
	s := Open(idx, nil, Config{
		MergeThreshold:   1 << 20,
		SnapshotInterval: 20 * time.Millisecond,
		SnapshotPath:     path,
	})
	for i := 0; i < 31; i++ {
		if err := s.Insert([]int64{9_300_000 + int64(i), 9_300_050, 4, 4, 4}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no periodic snapshot within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close writes a final snapshot, so the file reflects all 31 rows —
	// including from concurrent Close calls, which all wait for it.
	var closeWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		closeWG.Add(1)
		go func() {
			defer closeWG.Done()
			if err := s.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	closeWG.Wait()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := Recover(f, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	q := query.NewCount(query.Filter{Dim: 0, Lo: 9_300_000, Hi: 9_399_999})
	if got := r.Execute(q).Count; got != 31 {
		t.Errorf("recovered count = %d, want 31", got)
	}
}

// TestLiveEventsAndFlushNoBuffered covers the event hook and Flush
// fast-path (no buffered rows → no new epoch).
func TestLiveEventsAndFlushNoBuffered(t *testing.T) {
	st := testutil.SmallTaxi(4000, 31)
	work := testutil.SkewedQueries(st, 80, 32)
	idx := core.Build(st, work, smallConfig())

	var mu sync.Mutex
	var events []Event
	s := Open(idx, work, Config{
		MergeThreshold: 100,
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	defer s.Close()

	epoch := s.Epoch()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != epoch {
		t.Errorf("empty Flush advanced the epoch: %d -> %d", epoch, got)
	}
	for i := 0; i < 120; i++ {
		if err := s.Insert([]int64{9_400_000 + int64(i), 9_400_050, 5, 5, 5}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Merges == 0 {
		if time.Now().After(deadline) {
			t.Fatal("threshold merge did not run")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawMerge bool
	for _, ev := range events {
		if ev.Kind == EventMerge && ev.MergedRows > 0 && ev.Epoch > epoch {
			sawMerge = true
		}
		if ev.Kind == EventError {
			t.Errorf("maintenance error: %v", ev.Err)
		}
	}
	if !sawMerge {
		t.Error("no merge event emitted")
	}
}

// TestLiveEstimateCostOfCachedQuery checks admission's view of the result
// cache: a query the cache holds at the current epoch costs nothing, the
// real plan estimate returns with the next publish, and a store without a
// cache always reports the plan estimate.
func TestLiveEstimateCostOfCachedQuery(t *testing.T) {
	st := testutil.SmallTaxi(4000, 61)
	work := testutil.SkewedQueries(st, 40, 62)
	q := work[0]
	for _, entries := range []int{64, 0} {
		s := Open(core.Build(st, work, smallConfig()), nil, Config{CacheEntries: entries})
		defer s.Close()
		planRows, planBytes := s.Index().EstimateCost(q)
		if planRows == 0 {
			t.Fatalf("probe %s plans no rows; pick another", q)
		}
		check := func(when string, wantRows, wantBytes uint64) {
			t.Helper()
			if rows, bytes := s.EstimateCost(q); rows != wantRows || bytes != wantBytes {
				t.Errorf("CacheEntries=%d, %s: EstimateCost = (%d, %d), want (%d, %d)", entries, when, rows, bytes, wantRows, wantBytes)
			}
		}
		check("before the first ask", planRows, planBytes)
		s.Execute(q)
		if entries > 0 {
			check("after being served", 0, 0)
		} else {
			check("after being served", planRows, planBytes)
		}
		if cs := s.CacheStats(); cs.Hits != 0 || cs.Misses > 1 {
			t.Errorf("CacheEntries=%d: estimates moved the cache counters: %+v", entries, cs)
		}
		if err := s.Insert(st.Row(0, nil)); err != nil {
			t.Fatal(err)
		}
		planRows, planBytes = s.Index().EstimateCost(q)
		check("after an insert", planRows, planBytes)
	}
}

// TestLivePlanPinsItsEpoch checks a plan answers for the epoch it pinned:
// executed after an insert has published the next epoch, it returns the
// pinned epoch's oracle answer — a cached answer (priced (0, 0)) and a
// planned scan alike, flat and grouped — while a query planned afterwards
// sees the insert.
func TestLivePlanPinsItsEpoch(t *testing.T) {
	st := testutil.SmallTaxi(4000, 71)
	work := testutil.SkewedQueries(st, 40, 72)
	qs := []query.Query{query.NewCount(), query.NewSum(2), query.NewCount().By(4), query.NewSum(3).By(4)}
	check := func(what string, q query.Query, got colstore.ScanResult, truth *colstore.Store) {
		t.Helper()
		flat := q
		flat.GroupBy = 0
		if want := index.NewFullScan(truth).Execute(flat); got.Count != want.Count || got.Sum != want.Sum {
			t.Errorf("%s %s = (count %d, sum %d), oracle (%d, %d)", what, q, got.Count, got.Sum, want.Count, want.Sum)
		}
		if q.Grouped() && !slices.Equal(got.Groups, testutil.GroupedOracle(truth, q).Groups) {
			t.Errorf("%s %s groups differ from the oracle's", what, q)
		}
	}
	for _, entries := range []int{64, 0} {
		s := Open(core.Build(st, work, smallConfig()), nil, Config{CacheEntries: entries})
		defer s.Close()
		oracle := testutil.NewOracle(st)
		for i, q := range qs {
			for _, served := range []bool{false, true} {
				if served {
					s.Execute(q) // cached at this epoch when the store caches
				}
				pinned, epoch := oracle.Snapshot(), s.Epoch()
				p := s.Plan(q, index.Exec{})
				if rows, bytes := p.Cost(); served && entries > 0 && (rows != 0 || bytes != 0) {
					t.Errorf("a cached %s is priced (%d, %d), want (0, 0)", q, rows, bytes)
				}
				row := st.Row(i, nil)
				if err := s.Insert(row); err != nil {
					t.Fatal(err)
				}
				oracle.Add(row)
				if s.Epoch() != epoch+1 {
					t.Fatalf("the insert published epoch %d, want %d", s.Epoch(), epoch+1)
				}
				check("planned at the earlier epoch", q, p.Execute(), pinned)
				check("planned after the insert", q, s.Execute(q), oracle.Snapshot())
			}
		}
	}
}

// TestLiveMergeGate pins OpenGated's turn-taking: a threshold merge waits
// while another store holds the gate and runs once the gate is free, Flush
// does not wait for the gate, and Close does not wait for a merge queued
// on it.
func TestLiveMergeGate(t *testing.T) {
	st := testutil.SmallTaxi(3000, 61)
	idx := core.Build(st, testutil.SkewedQueries(st, 60, 62), smallConfig())
	insert := func(s *Store, k int) {
		t.Helper()
		rows := make([][]int64, 150)
		for i := range rows {
			rows[i] = st.Row((k*150+i)%st.NumRows(), nil)
		}
		if err := s.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	gate := make(chan struct{}, 1)
	s := OpenGated(idx, nil, Config{MergeThreshold: 100}, gate, "")
	defer s.Close()

	gate <- struct{}{} // another store is merging
	insert(s, 0)
	time.Sleep(50 * time.Millisecond)
	if got := s.Stats(); got.Merges != 0 || got.BufferedRows != 150 {
		t.Fatalf("with the gate taken: %d merges, %d rows buffered, want 0 and 150", got.Merges, got.BufferedRows)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Merges != 1 || got.BufferedRows != 0 {
		t.Fatalf("Flush with the gate taken: %d merges, %d rows buffered, want 1 and 0", got.Merges, got.BufferedRows)
	}

	insert(s, 1)
	time.Sleep(50 * time.Millisecond)
	if got := s.Stats().Merges; got != 1 {
		t.Fatalf("a threshold merge ran while the gate was taken (%d merges)", got)
	}
	<-gate
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Merges < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the queued merge did not run once the gate was free")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Execute(query.NewCount()).Count; got != 3300 {
		t.Errorf("count after the merges = %d, want 3300", got)
	}
	// The merge gives its slot back: the test can take it again.
	select {
	case gate <- struct{}{}:
	case <-time.After(10 * time.Second):
		t.Fatal("the gate was not released after the merge")
	}

	insert(s, 2) // queues a merge behind the gate the test holds
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close waited for a merge queued on the gate")
	}
}

// TestDetectorObservesDuringMaintenance pins that the shift detector is
// fed on the query path, not by the maintainer: with the maintainer parked
// inside a merge, one goroutine serving 1,000 novel queries has every one
// observed, and the shift they make is re-optimized for once the
// maintainer is free again.
func TestDetectorObservesDuringMaintenance(t *testing.T) {
	st := testutil.SmallTaxi(8000, 81)
	work := testutil.SkewedQueries(st, 120, 82)
	parked := make(chan struct{})
	release := make(chan struct{})
	reoptimized := make(chan struct{}, 1)
	var park, unpark sync.Once
	s := Open(core.Build(st, work, smallConfig()), work, Config{
		MergeThreshold: 100,
		OnEvent: func(ev Event) {
			switch ev.Kind {
			case EventMerge:
				park.Do(func() {
					close(parked)
					<-release
				})
			case EventReoptimize:
				select {
				case reoptimized <- struct{}{}:
				default:
				}
			}
		},
	})
	defer s.Close()
	defer unpark.Do(func() { close(release) }) // before Close: Close waits for the maintainer

	rows := make([][]int64, 150)
	for i := range rows {
		rows[i] = st.Row(i, nil)
	}
	if err := s.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the threshold merge did not start")
	}
	for k := int64(0); k < 1000; k++ {
		s.Execute(shiftedQuery(st, k))
	}
	if got := s.Stats(); got.DroppedObservations != 0 || got.Reoptimizations != 0 {
		t.Fatalf("with the maintainer in a merge: %d of 1000 observations dropped and %d re-optimizations, want 0 and 0",
			got.DroppedObservations, got.Reoptimizations)
	}
	unpark.Do(func() { close(release) })
	select {
	case <-reoptimized:
	case <-time.After(30 * time.Second):
		t.Fatalf("no re-optimization after the merge: %+v", s.Stats())
	}
}

// TestDetectorDoesNotPinMergedStore checks that shift detection keeps no
// epoch's table alive: once Flush publishes a merged copy, the clustered
// store the detector was fingerprinted on is garbage.
func TestDetectorDoesNotPinMergedStore(t *testing.T) {
	st := testutil.SmallTaxi(4000, 91)
	work := testutil.SkewedQueries(st, 80, 92)
	s := Open(core.Build(st, work, smallConfig()), work, Config{})
	defer s.Close()
	if s.Stats().DetectorTypes == 0 {
		t.Fatal("shift detection is off; the test proves nothing")
	}
	before := weak.Make(s.Index().Store())
	if err := s.Insert(st.Row(0, nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if before.Value() != nil {
		t.Error("the pre-merge clustered store is still reachable after Flush")
	}
}
