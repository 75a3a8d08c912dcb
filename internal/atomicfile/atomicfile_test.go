package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestFailedWriteKeepsOldFile: a write that fails midway leaves the
// previous content in place and no temporary file behind.
func TestFailedWriteKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	put := func(content string, fail error) error {
		return Write(path, 0o600, func(w io.Writer) error {
			if _, err := io.WriteString(w, content); err != nil {
				return err
			}
			return fail
		})
	}
	if err := put("old", nil); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	if err := put("new but cut short", boom); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Fatalf("content after failed write = %q, want %q", got, "old")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.snap" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only state.snap", names)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("mode %v (err %v), want 0600", fi.Mode().Perm(), err)
	}
}

// TestWriteCreatesFile: writing a path that does not exist yet creates it
// with the requested content and mode, and nothing else.
func TestWriteCreatesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topology.json")
	if err := Write(path, 0o640, func(w io.Writer) error {
		_, err := io.WriteString(w, "fresh")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "fresh" {
		t.Fatalf("content %q (err %v), want %q", got, err, "fresh")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o640 {
		t.Fatalf("mode %v (err %v), want 0640", fi.Mode().Perm(), err)
	}
	assertOnly(t, dir, "topology.json")
}

// TestWriteReplacesLongerContent: the new file replaces the old one whole;
// no tail of a longer previous content survives.
func TestWriteReplacesLongerContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest")
	for _, content := range []string{"a much longer first version", "short"} {
		if err := Write(path, 0o600, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "short" {
		t.Fatalf("content %q (err %v), want %q", got, err, "short")
	}
	assertOnly(t, dir, "manifest")
}

// TestFailedFirstWriteLeavesNothing: a failed write to a path that did not
// exist creates neither the path nor a temporary file.
func TestFailedFirstWriteLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	boom := errors.New("encode failed")
	if err := Write(path, 0o600, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("stat after failed first write: %v, want not-exist", err)
	}
	assertOnly(t, dir)
}

// TestWriteIntoMissingDirFails: a path whose directory does not exist is
// an error, and the writer is never called.
func TestWriteIntoMissingDirFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "state.snap")
	called := false
	err := Write(path, 0o600, func(io.Writer) error { called = true; return nil })
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if called {
		t.Fatal("writer called although the temporary file could not be created")
	}
}

// assertOnly fails unless dir holds exactly the named entries, in order.
func assertOnly(t *testing.T, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != len(want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("directory holds %v, want %v", names, want)
		}
	}
}
