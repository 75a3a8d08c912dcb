// Package atomicfile replaces durable files (snapshots, manifests) so that
// a reader or a crash never observes a partial write: the old content
// survives until the new content is complete and on disk.
package atomicfile

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Write replaces path with the bytes write produces. They go to a
// temporary file in path's directory, which is fsynced, closed and renamed
// over path; the directory is then fsynced so the rename itself is
// durable. On any failure the temporary file is removed and path keeps its
// previous content. The new file gets mode perm.
func Write(path string, perm fs.FileMode, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // a no-op once the rename has happened
	err = write(f)
	if err == nil {
		err = f.Chmod(perm)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
