package sharded

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/auggrid"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/live"
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

// TestPartitionerProperties is the property test for both partitioners:
// every row lands on exactly one shard (a total, stable, in-range
// assignment), and routing is sound — for any query, the shard owning
// any matching row is in the routed set.
func TestPartitionerProperties(t *testing.T) {
	st := testutil.SmallTaxi(4000, 51)
	rng := rand.New(rand.NewSource(52))
	parts := map[string]Partitioner{
		"hash":  NewHash(0, 5),
		"range": LearnRange(st, 0, 5),
	}
	queries := testutil.RandomQueries(st, 120, 53)
	for name, p := range parts {
		t.Run(name, func(t *testing.T) {
			if got := p.NumShards(); got != 5 {
				t.Fatalf("NumShards = %d, want 5", got)
			}
			counts := make([]int, p.NumShards())
			row := make([]int64, st.NumDims())
			for i := 0; i < st.NumRows(); i++ {
				st.Row(i, row)
				s := p.ShardOf(row)
				if s < 0 || s >= p.NumShards() {
					t.Fatalf("row %d assigned to shard %d", i, s)
				}
				if again := p.ShardOf(row); again != s {
					t.Fatalf("row %d assignment unstable: %d then %d", i, s, again)
				}
				counts[s]++
			}
			total := 0
			for _, c := range counts {
				total += c
			}
			if total != st.NumRows() {
				t.Fatalf("assignments sum to %d rows, want %d", total, st.NumRows())
			}
			// Routing soundness: every matching row's shard is routed.
			for _, q := range queries {
				routed := map[int]bool{}
				for _, id := range p.Shards(q, nil) {
					routed[id] = true
				}
				for i := 0; i < st.NumRows(); i++ {
					st.Row(i, row)
					if q.MatchesRow(row) && !routed[p.ShardOf(row)] {
						t.Fatalf("query %s prunes shard %d which owns matching row %d", q, p.ShardOf(row), i)
					}
				}
			}
			// Fuzz rows outside the observed domain too.
			for i := 0; i < 2000; i++ {
				for j := range row {
					row[j] = rng.Int63n(3_000_000) - 1_000_000
				}
				if s := p.ShardOf(row); s < 0 || s >= p.NumShards() {
					t.Fatalf("out-of-domain row assigned to shard %d", s)
				}
			}
		})
	}
}

// TestRangePartitionerPruning checks the learned cuts produce balanced
// shards and that narrow range filters on the partitioned dimension route
// to few shards.
func TestRangePartitionerPruning(t *testing.T) {
	st := testutil.SmallTaxi(8000, 61)
	p := LearnRange(st, 0, 4)
	counts := make([]int, 4)
	row := make([]int64, st.NumDims())
	for i := 0; i < st.NumRows(); i++ {
		st.Row(i, row)
		counts[p.ShardOf(row)]++
	}
	for s, c := range counts {
		if c < st.NumRows()/8 || c > st.NumRows()/2 {
			t.Errorf("shard %d holds %d of %d rows — equi-depth cuts failed", s, c, st.NumRows())
		}
	}
	lo, hi := st.MinMax(0)
	narrow := query.NewCount(query.Filter{Dim: 0, Lo: lo, Hi: lo + (hi-lo)/20})
	if ids := p.Shards(narrow, nil); len(ids) > 2 {
		t.Errorf("narrow range on partition dim routed to %d of 4 shards", len(ids))
	}
	offDim := query.NewCount(query.Filter{Dim: 2, Lo: 0, Hi: 100})
	if ids := p.Shards(offDim, nil); len(ids) != 4 {
		t.Errorf("off-dimension filter routed to %d shards, want all 4", len(ids))
	}
}

// TestSpecRoundTrip checks partitioners survive the manifest spec.
func TestSpecRoundTrip(t *testing.T) {
	st := testutil.SmallTaxi(2000, 71)
	for _, p := range []Partitioner{NewHash(3, 7), LearnRange(st, 0, 6)} {
		back, err := p.Spec().Partitioner()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if back.NumShards() != p.NumShards() {
			t.Fatalf("%s: round-trip shards %d, want %d", p, back.NumShards(), p.NumShards())
		}
		row := make([]int64, st.NumDims())
		for i := 0; i < 500; i++ {
			st.Row(i, row)
			if back.ShardOf(row) != p.ShardOf(row) {
				t.Fatalf("%s: round-trip assigns row %d differently", p, i)
			}
		}
	}
	if _, err := (Spec{Kind: "nope", N: 2}).Partitioner(); err == nil {
		t.Error("unknown spec kind accepted")
	}
	if _, err := (Spec{Kind: "range", N: 3, Cuts: []int64{5}}).Partitioner(); err == nil {
		t.Error("range spec with wrong cut count accepted")
	}
}

// TestShardedMatchesFullScan opens a sharded store over a table, checks
// every aggregate against a full scan, ingests more rows, and checks
// again — for both partitioners.
func TestShardedMatchesFullScan(t *testing.T) {
	st := testutil.SmallTaxi(6000, 81)
	work := testutil.SkewedQueries(st, 100, 82)
	for _, cfg := range []Config{
		{Shards: 4, Learned: true},
		{Shards: 3},
	} {
		s, err := Open(st, work, smallConfig(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().ClusteredRows; got != 6000 {
			t.Fatalf("%s: shards hold %d rows, want 6000", s.Name(), got)
		}
		probe := append(testutil.RandomQueries(st, 80, 83), query.NewCount())
		testutil.CheckMatchesFullScan(t, s, st, probe)

		rng := rand.New(rand.NewSource(84))
		var extra [][]int64
		for i := 0; i < 300; i++ {
			extra = append(extra, []int64{
				rng.Int63n(1_000_000), rng.Int63n(1_100_000),
				rng.Int63n(1000), rng.Int63n(3000), 1 + rng.Int63n(6),
			})
		}
		if err := s.InsertBatch(extra); err != nil {
			t.Fatal(err)
		}
		truth := combined(t, st, extra)
		testutil.CheckMatchesFullScan(t, s, truth, probe)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().BufferedRows; got != 0 {
			t.Errorf("%s: %d rows buffered after Flush", s.Name(), got)
		}
		testutil.CheckMatchesFullScan(t, s, truth, probe)

		// Malformed rows are errors, not partitioner panics.
		if err := s.Insert([]int64{1}); err == nil {
			t.Error("short row should be rejected")
		}
		if err := s.InsertBatch([][]int64{{1, 2}}); err == nil {
			t.Error("short batch row should be rejected")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(make([]int64, st.NumDims())); err == nil {
			t.Error("Insert after Close should fail")
		}
	}
}

// TestShardedPruningCounted checks the router actually prunes shards for
// range queries on the learned partition dimension.
func TestShardedPruningCounted(t *testing.T) {
	st := testutil.SmallTaxi(6000, 91)
	s, err := Open(st, nil, smallConfig(), Config{Shards: 4, Learned: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lo, hi := st.MinMax(0)
	for i := 0; i < 20; i++ {
		a := lo + int64(i)*(hi-lo)/40
		s.Execute(query.NewCount(query.Filter{Dim: 0, Lo: a, Hi: a + (hi-lo)/40}))
	}
	stats := s.Stats()
	if stats.Queries != 20 {
		t.Fatalf("queries = %d, want 20", stats.Queries)
	}
	if stats.ShardsPruned == 0 {
		t.Error("no shards pruned for narrow range queries on the partition dimension")
	}
	if stats.ShardsScanned+stats.ShardsPruned != 20*4 {
		t.Errorf("scanned(%d)+pruned(%d) != 80", stats.ShardsScanned, stats.ShardsPruned)
	}
}

// TestShardedSaveRecover checks the consistent multi-shard snapshot:
// buffered rows survive, the partitioner is reconstructed from the
// manifest, and the recovered store keeps serving and ingesting.
func TestShardedSaveRecover(t *testing.T) {
	st := testutil.SmallTaxi(5000, 101)
	work := testutil.SkewedQueries(st, 80, 102)
	s, err := Open(st, work, smallConfig(), Config{
		Shards:  3,
		Learned: true,
		Live:    live.Config{MergeThreshold: 1 << 20}, // keep rows buffered
	})
	if err != nil {
		t.Fatal(err)
	}
	var extra [][]int64
	for i := 0; i < 57; i++ {
		extra = append(extra, []int64{9_600_000 + int64(i), 9_600_050, 2, 2, 2})
	}
	if err := s.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Rows after the snapshot are lost by the "crash".
	if err := s.Insert([]int64{9_700_000, 9_700_000, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(dir, work, Config{Live: live.Config{MergeThreshold: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.NumShards(); got != 3 {
		t.Fatalf("recovered %d shards, want 3", got)
	}
	if got, want := r.Partitioner().String(), s.Partitioner().String(); got != want {
		t.Errorf("recovered partitioner %s, want %s", got, want)
	}
	if got := r.Stats().BufferedRows; got != 57 {
		t.Errorf("recovered %d buffered rows, want 57", got)
	}
	q := query.NewCount(query.Filter{Dim: 0, Lo: 9_600_000, Hi: 9_699_999})
	if got := r.Execute(q).Count; got != 57 {
		t.Errorf("recovered count = %d, want 57", got)
	}
	truth := combined(t, st, extra)
	testutil.CheckMatchesFullScan(t, r, truth, testutil.RandomQueries(st, 40, 103))

	// The recovered store resumes normal life.
	if err := r.Insert([]int64{9_600_900, 9_600_950, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	q2 := query.NewCount(query.Filter{Dim: 0, Lo: 9_600_000, Hi: 9_799_999})
	if got := r.Execute(q2).Count; got != 58 {
		t.Errorf("post-merge count = %d, want 58", got)
	}

	// A directory without a manifest must be rejected.
	if _, err := Recover(t.TempDir(), nil, Config{}); err == nil {
		t.Error("Recover on an empty directory should fail")
	}
}

// TestShardedSnapshotDir checks the per-shard snapshot loops plus the
// open-time manifest keep SnapshotDir recoverable, including the final
// snapshots on Close.
func TestShardedSnapshotDir(t *testing.T) {
	st := testutil.SmallTaxi(4000, 111)
	dir := filepath.Join(t.TempDir(), "serve-snap")
	s, err := Open(st, nil, smallConfig(), Config{
		Shards:      2,
		Learned:     true,
		SnapshotDir: dir,
		Live: live.Config{
			MergeThreshold:   1 << 20,
			SnapshotInterval: 20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 31; i++ {
		if err := s.Insert([]int64{9_800_000 + int64(i), 9_800_050, 4, 4, 4}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Snapshots < 2 {
		if time.Now().After(deadline) {
			t.Fatal("periodic shard snapshots did not run")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil { // final snapshots flush the last state
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	r, err := Recover(dir, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	q := query.NewCount(query.Filter{Dim: 0, Lo: 9_800_000, Hi: 9_899_999})
	if got := r.Execute(q).Count; got != 31 {
		t.Errorf("recovered count = %d, want 31", got)
	}
}

// TestShardedCloseFinalSnapshotNoInterval pins the Close guarantee: a
// store opened with SnapshotDir but no periodic interval must still
// leave a recoverable directory after a clean shutdown — Close writes
// the final consistent snapshot itself.
func TestShardedCloseFinalSnapshotNoInterval(t *testing.T) {
	st := testutil.SmallTaxi(3000, 131)
	dir := filepath.Join(t.TempDir(), "close-snap")
	s, err := Open(st, nil, smallConfig(), Config{
		Shards:      2,
		Learned:     true,
		SnapshotDir: dir,
		Live:        live.Config{MergeThreshold: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if err := s.Insert([]int64{9_900_000 + int64(i), 9_900_050, 5, 5, 5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	q := query.NewCount(query.Filter{Dim: 0, Lo: 9_900_000, Hi: 9_999_999})
	if got := r.Execute(q).Count; got != 13 {
		t.Errorf("recovered count = %d, want 13 (rows lost on Close)", got)
	}
}

// TestShardedRejectsShardSnapshotPath checks the one misconfiguration
// that would corrupt snapshots (all shards sharing one file) is refused.
func TestShardedRejectsShardSnapshotPath(t *testing.T) {
	st := testutil.SmallTaxi(1000, 121)
	_, err := Open(st, nil, smallConfig(), Config{
		Shards: 2,
		Live:   live.Config{SnapshotPath: "/tmp/x"},
	})
	if err == nil {
		t.Fatal("Open accepted Live.SnapshotPath")
	}
}

// combined appends extra rows to a copy of st (shared oracle helper).
func combined(t *testing.T, st *colstore.Store, extra [][]int64) *colstore.Store {
	t.Helper()
	return testutil.CombineRows(st, extra)
}

var _ index.Index = (*Store)(nil)

// TestShardedMergesTakeTurns checks that the shards' threshold merges never
// overlap: every merge's [start, end] interval, rebuilt from its event, is
// disjoint from every other's, and every shard merged.
func TestShardedMergesTakeTurns(t *testing.T) {
	st := testutil.SmallTaxi(6000, 71)
	type span struct {
		shard      int
		start, end time.Time
	}
	var spans []span // appended under the store's serialized OnEvent
	s, err := Open(st, nil, smallConfig(), Config{
		Shards: 2, Learned: true,
		Live: live.Config{MergeThreshold: 200},
		OnEvent: func(ev Event) {
			if ev.Kind == live.EventMerge {
				end := time.Now()
				spans = append(spans, span{ev.Shard, end.Add(-time.Duration(ev.Seconds * 1e9)), end})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every batch holds rows of both shards, so both cross the threshold
	// together again and again.
	for b := 0; b < 20; b++ {
		rows := make([][]int64, 200)
		for i := range rows {
			rows[i] = st.Row((b*977+i*29)%st.NumRows(), nil)
		}
		if err := s.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.Stats().BufferedRows >= 2*200 {
		if time.Now().After(deadline) {
			t.Fatal("the threshold merges did not drain the buffers")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	merged := map[int]bool{}
	for i, a := range spans {
		merged[a.shard] = true
		for _, b := range spans[i+1:] {
			if a.start.Before(b.end) && b.start.Before(a.end) {
				t.Errorf("merges overlap: shard %d %v-%v and shard %d %v-%v",
					a.shard, a.start.Format("05.000000"), a.end.Format("05.000000"),
					b.shard, b.start.Format("05.000000"), b.end.Format("05.000000"))
			}
		}
	}
	if len(merged) != 2 {
		t.Errorf("shards that merged: %v, want both", merged)
	}
}
