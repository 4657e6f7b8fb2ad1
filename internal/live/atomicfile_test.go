package live

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteAtomicFailureKeepsPreviousFile injects failures into each step
// a snapshot write can fail at and checks the two promises recovery rests
// on: the previous good file is intact, and no temp file is left behind.
func TestWriteAtomicFailureKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.snap")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	check := func(when, want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("%s: snapshot holds %q (err %v), want %q", when, got, err, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("%s: directory holds %d entries, want the snapshot alone", when, len(entries))
		}
	}
	if err := WriteAtomic(path, put("generation 1")); err != nil {
		t.Fatal(err)
	}
	check("first write", "generation 1")

	boom := errors.New("disk full")
	err := WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "generation 2, torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("a failing write returned %v, want the write's error", err)
	}
	check("failed write", "generation 1")

	// A failing rename (the destination is a non-empty directory) cleans
	// up the same way.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(blocked, put("x")); err == nil {
		t.Fatal("renaming over a non-empty directory succeeded")
	}
	if err := os.RemoveAll(blocked); err != nil {
		t.Fatal(err)
	}
	check("failed rename", "generation 1")

	if err := WriteAtomic(path, put("generation 2")); err != nil {
		t.Fatal(err)
	}
	check("second write", "generation 2")
}
