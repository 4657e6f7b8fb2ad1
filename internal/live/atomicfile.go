package live

import (
	"io"
	"os"
	"path/filepath"
)

// WriteAtomic replaces the file at path with what write produces: it
// writes a temp file in path's directory, fsyncs it (without that a power
// loss can journal the rename ahead of the data blocks, destroying the
// previous good file along with the new one), renames it over path, and
// fsyncs the directory. A crash or error at any point leaves the previous
// file intact and no temp file behind — and, once WriteAtomic returns, the
// rename itself is durable. That last property is what the sharded
// migration protocol's cross-file write ordering (pending manifest → dst →
// src → clean manifest, each followed by a generation stamp) rests on:
// without the directory sync, a journal could persist a later rename
// before an earlier one and recovery would read a reordered history.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
