package sharded

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/live"
	"repro/internal/query"
	"repro/internal/testutil"
)

// skewedRows builds rows that all land beyond the table's current dim-0
// maximum — the "all fresh rows hit the last time shard" drift scenario.
func skewedRows(st *colstore.Store, n int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	_, hi := st.MinMax(0)
	rows := make([][]int64, n)
	for i := range rows {
		t := hi + 1 + int64(i)*3 + rng.Int63n(3)
		rows[i] = []int64{t, t + 50, rng.Int63n(1000), rng.Int63n(3000), 1 + rng.Int63n(6)}
	}
	return rows
}

// TestRebalanceRestoresBalance is the tentpole's core property: skewed
// ingest unbalances the learned range shards, a manual Rebalance
// re-learns the cuts and migrates rows, and afterwards (a) the spread is
// within bounds, (b) every aggregate still equals a full scan — no row
// lost or duplicated, (c) routing still prunes, and (d) the partitioner
// generation advanced.
func TestRebalanceRestoresBalance(t *testing.T) {
	st := testutil.SmallTaxi(6000, 401)
	work := testutil.SkewedQueries(st, 80, 402)
	s, err := Open(st, work, smallConfig(), Config{Shards: 4, Learned: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	extra := skewedRows(st, 4000, 403)
	if err := s.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}
	if skew, _ := s.Skew(); skew < 2 {
		t.Fatalf("setup failed to skew the shards: skew %.2f", skew)
	}

	if err := s.Rebalance(); err != nil {
		t.Fatal(err)
	}

	skew, total := s.Skew()
	if total != 10000 {
		t.Fatalf("total rows = %d, want 10000", total)
	}
	if skew >= 2 {
		t.Errorf("post-rebalance skew %.2f, want < 2", skew)
	}
	stats := s.Stats()
	if stats.Rebalances != 1 || stats.RowsMigrated == 0 {
		t.Errorf("rebalance not counted: %d rebalances, %d rows migrated",
			stats.Rebalances, stats.RowsMigrated)
	}
	if stats.Generation < 2 {
		t.Errorf("generation = %d, want >= 2 after a migration", stats.Generation)
	}

	truth := combined(t, st, extra)
	probe := append(testutil.RandomQueries(truth, 80, 404), query.NewCount())
	for i := 0; i < truth.NumDims(); i++ {
		probe = append(probe, query.NewSum(i))
	}
	testutil.CheckMatchesFullScan(t, s, truth, probe)

	// Routing soundness against the new cuts: narrow range queries on the
	// partition dimension must still prune and still answer exactly
	// (checked above); verify pruning is happening at all.
	before := s.Stats()
	lo, hi := truth.MinMax(0)
	for i := 0; i < 20; i++ {
		a := lo + int64(i)*(hi-lo)/40
		s.Execute(query.NewCount(query.Filter{Dim: 0, Lo: a, Hi: a + (hi-lo)/40}))
	}
	after := s.Stats()
	if after.ShardsPruned == before.ShardsPruned {
		t.Error("no shards pruned after rebalance — new cuts not routing")
	}

	// A second rebalance on balanced shards is a cheap no-op.
	if err := s.Rebalance(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceReadsStayExactThroughout pins the migration exactness
// claim: with ingest quiesced, concurrent readers must see the exact same
// aggregates before, during, and after a rebalance — the seqlock retry
// makes the cross-shard row handoff invisible.
func TestRebalanceReadsStayExactThroughout(t *testing.T) {
	st := testutil.SmallTaxi(5000, 411)
	s, err := Open(st, nil, smallConfig(), Config{Shards: 3, Learned: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	extra := skewedRows(st, 3000, 412)
	if err := s.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}

	truth := combined(t, st, extra)
	probes := append(testutil.RandomQueries(truth, 12, 413), query.NewCount())
	// Bias toward the partition dimension, where the cuts move.
	lo, hi := truth.MinMax(0)
	for i := 0; i < 8; i++ {
		a := lo + int64(i)*(hi-lo)/8
		probes = append(probes, query.NewCount(query.Filter{Dim: 0, Lo: a, Hi: a + (hi-lo)/6}))
	}
	want := make([]colstore.ScanResult, len(probes))
	for i, q := range probes {
		want[i] = s.Execute(q)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := r; !stop.Load(); k++ {
				i := k % len(probes)
				got := s.Execute(probes[i])
				if got.Count != want[i].Count || got.Sum != want[i].Sum {
					select {
					case errs <- fmt.Sprintf("reader %d: %s: got (%d, %d), want (%d, %d)",
						r, probes[i], got.Count, got.Sum, want[i].Count, want[i].Sum):
					default:
					}
					return
				}
			}
		}()
	}

	if err := s.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().RowsMigrated; got == 0 {
		t.Error("rebalance moved no rows — the readers were not challenged")
	}
	time.Sleep(10 * time.Millisecond) // let readers cross the post-publish state too
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("mid-migration read diverged: %s", e)
	}
}

// TestRebalanceWatcherTriggers drives the background watcher end to end:
// skewed ingest trips the skew threshold and the store rebalances itself.
func TestRebalanceWatcherTriggers(t *testing.T) {
	st := testutil.SmallTaxi(4000, 421)
	var mu sync.Mutex
	var events []Event
	s, err := Open(st, nil, smallConfig(), Config{
		Shards:  3,
		Learned: true,
		Rebalance: RebalanceConfig{
			CheckInterval: 10 * time.Millisecond,
			MaxSkew:       1.5,
		},
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.InsertBatch(skewedRows(st, 3000, 422)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for s.Stats().Rebalances == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never rebalanced: skew %v, stats %+v", firstOf(s.Skew()), s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if skew, _ := s.Skew(); skew >= 1.5 {
		t.Errorf("skew still %.2f after watcher rebalance", skew)
	}
	mu.Lock()
	defer mu.Unlock()
	sawRebalance := false
	for _, ev := range events {
		if ev.Kind == live.EventRebalance && ev.Shard == -1 && ev.MergedRows > 0 {
			sawRebalance = true
		}
		if ev.Kind == live.EventError {
			t.Errorf("maintenance error: %v", ev.Err)
		}
	}
	if !sawRebalance {
		t.Error("no rebalance event emitted")
	}
}

func firstOf(a float64, _ int) float64 { return a }

// TestRebalanceRequiresRangePartitioner pins the failure modes: manual
// rebalance on a hash partitioner errors, and a watcher config on one is
// rejected at Open.
func TestRebalanceRequiresRangePartitioner(t *testing.T) {
	st := testutil.SmallTaxi(1000, 431)
	s, err := Open(st, nil, smallConfig(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Rebalance(); err == nil {
		t.Error("Rebalance on a hash partitioner should fail")
	}
	_, err = Open(st, nil, smallConfig(), Config{
		Shards:    2,
		Rebalance: RebalanceConfig{CheckInterval: time.Second},
	})
	if err == nil {
		t.Error("Open accepted a rebalance watcher over a hash partitioner")
	}
}

// TestRebalanceCrashRecovery cuts "crash images" of the snapshot
// directory between every stage of the migration persistence protocol —
// intent written, destination persisted, source persisted — then recovers
// each image and verifies no row is lost or duplicated, aggregates match
// the oracle, and the recovered partitioner generation is consistent with
// the roll direction Recover chose.
func TestRebalanceCrashRecovery(t *testing.T) {
	st := testutil.SmallTaxi(4000, 441)
	dir := filepath.Join(t.TempDir(), "snap")
	s, err := Open(st, nil, smallConfig(), Config{
		Shards:      3,
		Learned:     true,
		SnapshotDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	extra := skewedRows(st, 2500, 442)
	if err := s.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}
	truth := combined(t, st, extra)
	totalRows := uint64(truth.NumRows())
	// Sync the directory with the ingested state: without periodic
	// snapshots the buffered rows exist only in memory, and a crash image
	// would legitimately lose them — this test is about migration
	// consistency, not ingest durability.
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Capture a crash image at every persistence stage of every move.
	imagesRoot := t.TempDir()
	type image struct {
		stage string
		dir   string
	}
	var images []image
	s.moveHook = func(stage string) {
		d := filepath.Join(imagesRoot, fmt.Sprintf("img-%d-%s", len(images), stage))
		if err := copyDir(dir, d); err != nil {
			t.Errorf("capture %s: %v", stage, err)
			return
		}
		images = append(images, image{stage, d})
	}
	if err := s.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().RowsMigrated == 0 {
		t.Fatal("rebalance moved nothing; crash images prove nothing")
	}
	liveGen := s.Generation()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(images) < 3 {
		t.Fatalf("captured %d crash images, want at least 3", len(images))
	}

	probe := append(testutil.RandomQueries(truth, 40, 443), query.NewCount())
	for i := 0; i < truth.NumDims(); i++ {
		probe = append(probe, query.NewSum(i))
	}
	for _, img := range images {
		t.Run(img.stage, func(t *testing.T) {
			r, err := Recover(img.dir, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.Execute(query.NewCount()).Count; got != totalRows {
				t.Fatalf("recovered %d rows, want %d (lost or duplicated across the crash)",
					got, totalRows)
			}
			testutil.CheckMatchesFullScan(t, r, truth, probe)
			if gen := r.Generation(); gen == 0 || gen > liveGen {
				t.Errorf("recovered generation %d out of range (live store ended at %d)", gen, liveGen)
			}
			// The recovered placement must agree with its own partitioner:
			// every shard's rows inside its advertised bounds.
			rp := r.Partitioner().(*RangePartitioner)
			for i := 0; i < r.NumShards(); i++ {
				lo, hi := rp.Bounds(i)
				n := r.Shard(i).Execute(query.NewCount()).Count
				if lo > hi {
					if n != 0 {
						t.Errorf("empty-range shard %d holds %d rows", i, n)
					}
					continue
				}
				in := r.Shard(i).Execute(query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: hi})).Count
				if in != n {
					t.Errorf("shard %d holds %d rows but only %d inside its bounds [%d, %d]",
						i, n, in, lo, hi)
				}
			}
			// And it resumes normal life.
			if err := r.Insert(make([]int64, truth.NumDims())); err != nil {
				t.Fatal(err)
			}
		})
	}

	// The final directory (clean manifest) recovers at the final
	// generation.
	r, err := Recover(dir, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Generation(); got != liveGen {
		t.Errorf("clean recovery at generation %d, want %d", got, liveGen)
	}
	if got := r.Execute(query.NewCount()).Count; got != totalRows {
		t.Errorf("clean recovery holds %d rows, want %d", got, totalRows)
	}
}

// copyDir copies every regular file in src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
