package sharded

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/query"
	"repro/internal/testutil"
)

// recoverFixture saves a small two-shard store (learned range cuts on
// dim 0) to a fresh directory and returns the directory and the table.
func recoverFixture(tb testing.TB) (string, *colstore.Store) {
	tb.Helper()
	st := testutil.SmallTaxi(400, 131)
	s, err := Open(st, nil, smallConfig(), Config{Shards: 2, Learned: true})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if err := s.Save(dir); err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir, st
}

// linkShardFiles hard-links every shard snapshot and generation stamp in
// src, but not the manifest, into dst. Recover only ever replaces a file
// (WriteAtomic renames over it), so the links never change src.
func linkShardFiles(tb testing.TB, src, dst string) {
	tb.Helper()
	names, err := filepath.Glob(filepath.Join(src, "shard-*"))
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range names {
		if err := os.Link(name, filepath.Join(dst, filepath.Base(name))); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRecoverRejectsBadManifest pins that a manifest which does not fit
// the shard files beside it is refused by Recover, not served until the
// first Insert routes on a dimension the table does not have.
func TestRecoverRejectsBadManifest(t *testing.T) {
	fixture, st := recoverFixture(t)
	dims := st.NumDims()
	for _, c := range []struct {
		name, want string
		edit       func(t *testing.T, m *manifest, dir string)
	}{
		{"dim -1", "dim -1", func(t *testing.T, m *manifest, dir string) { m.Spec.Dim = -1 }},
		{"dim = NumDims", fmt.Sprintf("dim %d of %d", dims, dims), func(t *testing.T, m *manifest, dir string) { m.Spec.Dim = dims }},
		{"a shard more than files", "shard-0002.snap", func(t *testing.T, m *manifest, dir string) {
			m.Spec.N++
			m.Spec.Cuts = append(m.Spec.Cuts, m.Spec.Cuts[len(m.Spec.Cuts)-1])
		}},
		{"a narrower shard file", fmt.Sprintf("shard 1 has %d dims", dims-1), func(t *testing.T, m *manifest, dir string) {
			cols := make([][]int64, dims-1)
			for d := range cols {
				cols[d] = st.Column(d)
			}
			narrow, err := colstore.FromColumns(cols, st.Names()[:dims-1])
			if err != nil {
				t.Fatal(err)
			}
			if err := live.WriteAtomic(shardFile(dir, 1), core.Build(narrow, nil, smallConfig()).Save); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			linkShardFiles(t, fixture, dir)
			m, err := readManifest(fixture)
			if err != nil {
				t.Fatal(err)
			}
			c.edit(t, m, dir)
			if err := writeManifest(dir, m.Spec, m.Generation, m.Pending); err != nil {
				t.Fatal(err)
			}
			r, err := Recover(dir, nil, Config{})
			if err == nil {
				// What the store does with it: the first Insert routes on
				// the manifest's partitioner.
				defer r.Close()
				t.Fatalf("Recover accepted a manifest with %s; an Insert then returned %v", c.name, r.Insert(st.Row(0, nil)))
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("Recover error %q does not name %q", err, c.want)
			}
		})
	}
}

// FuzzRecoverManifest writes fuzzed manifest bytes beside the shard files
// of a small two-shard store and recovers the directory. The contract:
// Recover returns an error, or a store whose COUNT(*) is its shards' row
// total and which accepts an Insert. It never panics.
func FuzzRecoverManifest(f *testing.F) {
	fixture, st := recoverFixture(f)
	m, err := readManifest(fixture)
	if err != nil {
		f.Fatal(err)
	}
	seed := func(m manifest) {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(&m); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	seed(*m)
	seed(manifest{FormatVersion: manifestVersion, Spec: Spec{Kind: "hash", Dim: 1, N: 2}, Generation: 1})
	// The shard stamps (generation 1) are past this manifest's generation,
	// so Recover rolls the pending move forward and sanitizes both shards.
	cut := m.Spec.Cuts[0]
	seed(manifest{FormatVersion: manifestVersion, Spec: m.Spec,
		Pending: &pendingMove{CutIndex: 0, NewCut: cut + 1000, OldCut: cut, Src: 1, Dst: 0}})
	seed(manifest{FormatVersion: manifestVersion, Spec: Spec{Kind: "range", Dim: st.NumDims(), N: 2, Cuts: []int64{cut}}})
	f.Add([]byte("not a manifest"))

	row := st.Row(0, nil)
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		linkShardFiles(t, fixture, dir)
		if err := os.WriteFile(filepath.Join(dir, manifestName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Recover(dir, nil, Config{})
		if err != nil {
			return
		}
		defer s.Close()
		var total uint64
		for _, sh := range s.shards {
			idx := sh.Index()
			total += uint64(idx.Store().NumRows() + idx.NumBuffered())
		}
		if got := s.Execute(query.NewCount()).Count; got != total {
			t.Fatalf("%s: COUNT(*) = %d, the shards hold %d rows", s.Partitioner(), got, total)
		}
		if err := s.Insert(row); err != nil {
			t.Fatalf("%s: Insert: %v", s.Partitioner(), err)
		}
		if got := s.Execute(query.NewCount()).Count; got != total+1 {
			t.Fatalf("%s: COUNT(*) after one Insert = %d, want %d", s.Partitioner(), got, total+1)
		}
	})
}
