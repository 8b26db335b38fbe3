// Package atomicfile replaces a file's contents all at once: readers
// of the path — a live kondo-serve among them — see either the old
// bytes or the new ones, never a torn mix, and a write that fails
// partway leaves the old file untouched.
package atomicfile

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
)

// Write fills a temporary file in path's directory through write,
// syncs and closes it, renames it over path, and syncs the directory
// so the rename itself survives a crash. A new file gets perm less the
// umask, as os.WriteFile would give it; an existing path keeps its
// permission bits, as truncating it in place would. On any error the
// temporary file is removed and path is left as it was. The write
// callback's error is returned unchanged.
func Write(path string, perm os.FileMode, write func(f *os.File) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	var f *os.File
	for tries := 0; ; tries++ {
		tmp := filepath.Join(dir, fmt.Sprintf(".%s.tmp%08x", base, rand.Uint32()))
		f, err = os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, perm)
		if err == nil {
			break
		}
		if !os.IsExist(err) || tries == 9 {
			return fmt.Errorf("atomicfile: create temp file: %w", err)
		}
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close() // a second Close after a failed one is harmless
			os.Remove(tmp)
		}
	}()

	if fi, serr := os.Stat(path); serr == nil {
		if err = f.Chmod(fi.Mode().Perm()); err != nil {
			return fmt.Errorf("atomicfile: %w", err)
		}
	}
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	return syncDir(dir)
}

// syncDir flushes a directory's entries, making a rename into it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("atomicfile: sync directory: %w", err)
	}
	return nil
}
