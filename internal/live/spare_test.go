package live

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/testutil"
)

// TestMergesReuseRetiredColumns pins when a merge may write into a
// retired store's column arrays: once it is no longer current and no
// plan holds it, and never when it was handed out (the index the store
// was opened on, Index()). A pinned plan must still answer from its
// epoch's rows after later merges.
func TestMergesReuseRetiredColumns(t *testing.T) {
	st := testutil.SmallTaxi(4000, 81)
	fresh := testutil.SmallTaxi(800, 83)
	oracle := testutil.NewOracle(st)
	// Open over an index whose arrays have room for every merge below, so
	// that only the rule, not their size, keeps a merge out of them.
	built := core.Build(st, testutil.SkewedQueries(st, 40, 82), smallConfig())
	first := [][]int64{fresh.Row(0, nil)}
	oracle.Add(first[0])
	buffered, err := built.CopyWithInserts(first)
	if err != nil {
		t.Fatal(err)
	}
	roomy := make([][]int64, st.NumDims())
	for j := range roomy {
		roomy[j] = make([]int64, 0, 2*st.NumRows())
	}
	opening, _, err := buffered.MergedCopyReusing(roomy, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := Open(opening, nil, Config{})
	defer s.Close()
	next := 1
	merge := func() *colstore.Store {
		t.Helper()
		for k := 0; k < 40; k++ {
			row := fresh.Row(next, nil)
			next++
			if err := s.Insert(row); err != nil {
				t.Fatal(err)
			}
			oracle.Add(row)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return s.cur.Load().idx.Store()
	}
	same := func(a, b *colstore.Store) bool { return &a.Column(0)[:1][0] == &b.Column(0)[:1][0] }
	opened := s.cur.Load().idx.Store()

	s1 := merge()
	s2 := merge()
	s3 := merge()
	if same(s1, opened) || same(s2, opened) || same(s3, opened) {
		t.Fatal("a merge wrote into the arrays of the index the store was opened on")
	}
	if !same(s3, s1) {
		t.Fatal("the third merge did not reuse the first merge's retired arrays")
	}

	// A plan pins s3: the merges after it must not write into its arrays.
	q := query.NewSum(2)
	want := index.NewFullScan(oracle.Snapshot()).Execute(q)
	p := s.Plan(q, index.Exec{})
	s4 := merge()
	s5 := merge()
	if same(s5, s3) {
		t.Fatal("a merge wrote into arrays a pending plan reads")
	}
	if got := p.Execute(); got.Count != want.Count || got.Sum != want.Sum {
		t.Errorf("the pinned plan answered (%d, %d), its epoch's rows give (%d, %d)", got.Count, got.Sum, want.Count, want.Sum)
	}
	if s6 := merge(); !same(s6, s4) && !same(s6, s3) {
		t.Error("a released store's arrays were not reused")
	}

	// Index() hands the current store out for good.
	held := s.Index().Store()
	for range 3 {
		if same(merge(), held) {
			t.Fatal("a merge wrote into the arrays of a store Index() returned")
		}
	}
	if got, want := s.Execute(q), index.NewFullScan(oracle.Snapshot()).Execute(q); got.Count != want.Count || got.Sum != want.Sum {
		t.Errorf("after the merges (%d, %d), oracle (%d, %d)", got.Count, got.Sum, want.Count, want.Sum)
	}
}

// TestFlushStopsBackgroundMerge pins that a merge abandoned for a Flush
// publishes nothing and keeps its arrays as the spare.
func TestFlushStopsBackgroundMerge(t *testing.T) {
	st := testutil.SmallTaxi(3000, 84)
	s := Open(core.Build(st, testutil.SkewedQueries(st, 40, 85), smallConfig()), nil, Config{})
	defer s.Close()
	fresh := testutil.SmallTaxi(100, 86)
	for i := 0; i < fresh.NumRows(); i++ {
		if err := s.Insert(fresh.Row(i, nil)); err != nil {
			t.Fatal(err)
		}
	}
	s.maintMu.Lock()
	epoch := s.Epoch()
	err := s.mergeLocked(func() bool { return true })
	s.maintMu.Unlock()
	if !errors.Is(err, core.ErrStopped) {
		t.Fatalf("stopped merge returned %v, want core.ErrStopped", err)
	}
	if s.Epoch() != epoch || s.Stats().Merges != 0 || s.Stats().BufferedRows != fresh.NumRows() {
		t.Fatalf("a stopped merge published: epoch %d -> %d, %d merges, %d buffered", epoch, s.Epoch(), s.Stats().Merges, s.Stats().BufferedRows)
	}
	spare := s.spare
	if spare == nil {
		t.Fatal("the stopped merge dropped its arrays")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.cur.Load().idx.Store().Column(0); &got[:1][0] != &spare[0][:1][0] {
		t.Error("the Flush after a stopped merge did not write into its arrays")
	}
}

// TestHitsPinNothing pins that a cache hit holds no column store: hit
// plans held unexecuted, and hit plans released unexecuted (what a shed
// or over-budget query does), leave the store's pin count at zero, so a
// merge still recycles the store they were planned on. The held plans
// then answer their epoch's oracle answer, and only the executed ones
// count as queries and cache hits.
func TestHitsPinNothing(t *testing.T) {
	st := testutil.SmallTaxi(4000, 87)
	fresh := testutil.SmallTaxi(400, 89)
	oracle := testutil.NewOracle(st)
	s := Open(core.Build(st, testutil.SkewedQueries(st, 40, 88), smallConfig()), nil, Config{CacheEntries: 64})
	defer s.Close()
	next := 0
	merge := func() *colstore.Store {
		t.Helper()
		for k := 0; k < 40; k++ {
			row := fresh.Row(next, nil)
			next++
			if err := s.Insert(row); err != nil {
				t.Fatal(err)
			}
			oracle.Add(row)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return s.cur.Load().idx.Store()
	}
	pins := func() int64 { return s.cur.Load().ref.state.Load() & (refRetired - 1) }
	same := func(a, b *colstore.Store) bool { return &a.Column(0)[:1][0] == &b.Column(0)[:1][0] }

	// The opened index is never recycled; the first merge's store may be.
	s1 := merge()
	qs := []query.Query{query.NewCount(), query.NewSum(2), query.NewCount().By(4), query.NewSum(3).By(4)}
	truth := oracle.Snapshot()
	for _, q := range qs {
		s.Execute(q) // a miss, which caches it
	}
	before := s.Stats()
	var held []index.Plan
	for _, q := range qs {
		held = append(held, s.Plan(q, index.Exec{}))
		if rows, bytes := held[len(held)-1].Cost(); rows != 0 || bytes != 0 {
			t.Fatalf("%s was served once at this epoch but planned a scan of (%d, %d)", q, rows, bytes)
		}
		s.Plan(q, index.Exec{}).Release()
	}
	if n := pins(); n != 0 {
		t.Fatalf("%d hit plans outstanding pin the store %d times", len(held), n)
	}
	if got := s.Stats(); got != before {
		t.Fatalf("planning and releasing hits moved the store's counts from %+v to %+v", before, got)
	}

	s2 := merge()
	s3 := merge()
	if !same(s3, s1) {
		t.Fatal("a store the held hit plans were planned on was not recycled")
	}
	if same(s3, s2) {
		t.Fatal("a merge wrote into the current store's arrays")
	}
	for i, p := range held {
		q := qs[i]
		got := p.Execute()
		flat := q
		flat.GroupBy = 0
		if want := index.NewFullScan(truth).Execute(flat); got.Count != want.Count || got.Sum != want.Sum {
			t.Errorf("held %s = (count %d, sum %d), its epoch's oracle (%d, %d)", q, got.Count, got.Sum, want.Count, want.Sum)
		}
		if q.Grouped() && !slices.Equal(got.Groups, testutil.GroupedOracle(truth, q).Groups) {
			t.Errorf("held %s groups differ from its epoch's oracle", q)
		}
	}
	after := s.Stats()
	if after.Queries != before.Queries+uint64(len(qs)) || after.Cache.Hits != before.Cache.Hits+uint64(len(qs)) ||
		after.Cache.Misses != before.Cache.Misses {
		t.Errorf("%d hits executed of %d planned: queries %d -> %d, hits %d -> %d, misses %d -> %d", len(qs), 2*len(qs),
			before.Queries, after.Queries, before.Cache.Hits, after.Cache.Hits, before.Cache.Misses, after.Cache.Misses)
	}
	if n := pins(); n != 0 {
		t.Errorf("the store is pinned %d times after every plan finished", n)
	}
}
