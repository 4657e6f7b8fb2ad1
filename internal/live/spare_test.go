package live

import (
	"errors"
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
