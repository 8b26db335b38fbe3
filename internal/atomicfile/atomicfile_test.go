package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// entries lists a directory's file names.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func writeBytes(b []byte) func(*os.File) error {
	return func(f *os.File) error {
		_, err := f.Write(b)
		return err
	}
}

// TestFailedWriteKeepsOldFile injects a failure after part of the new
// contents is written: the destination keeps its old bytes and no
// temporary file is left behind.
func TestFailedWriteKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.sdf")
	if err := Write(path, 0o644, writeBytes([]byte("old contents"))); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	err := Write(path, 0o644, func(f *os.File) error {
		if _, err := f.Write([]byte("new, torn")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write callback's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old contents" {
		t.Fatalf("destination = %q after a failed write, want the old bytes", got)
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "out.sdf" {
		t.Fatalf("directory holds %v after a failed write, want only out.sdf", names)
	}
}

// TestWriteReplacesContents: a successful write gives the new bytes,
// shorter than the old ones, and leaves only the destination.
func TestWriteReplacesContents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, []byte("a longer old manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, 0o644, writeBytes([]byte("{}\n"))); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "{}\n" {
		t.Fatalf("destination = %q, want the new bytes", got)
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want only the destination", names)
	}
}

// TestWriteKeepsModes: a new file gets perm less the umask, as
// os.WriteFile would; an existing file keeps its permission bits, as
// truncating it in place would.
func TestWriteKeepsModes(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref")
	if err := os.WriteFile(ref, nil, 0o666); err != nil {
		t.Fatal(err)
	}
	want, err := os.Stat(ref)
	if err != nil {
		t.Fatal(err)
	}

	fresh := filepath.Join(dir, "fresh")
	if err := Write(fresh, 0o666, writeBytes(nil)); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(fresh); err != nil || fi.Mode().Perm() != want.Mode().Perm() {
		t.Fatalf("new file mode = %v (%v), want os.WriteFile's %v", fi.Mode().Perm(), err, want.Mode().Perm())
	}

	private := filepath.Join(dir, "private")
	if err := os.WriteFile(private, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(private, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := Write(private, 0o644, writeBytes([]byte("y"))); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(private); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("replaced file mode = %v (%v), want 0600 kept", fi.Mode().Perm(), err)
	}
}

// TestMissingDirectoryFails: a destination whose directory does not
// exist fails up front and creates nothing.
func TestMissingDirectoryFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "out")
	if err := Write(path, 0o644, writeBytes([]byte("x"))); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
