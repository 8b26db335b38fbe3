package container

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/array"
	"repro/internal/atomicfile"
	"repro/internal/debloat"
)

// Image is a built container image: the spec plus its bundled files
// materialized under a root directory.
type Image struct {
	Spec *Spec
	// Root is the directory holding the image contents; ADD
	// destinations are resolved beneath it.
	Root string
}

// Build materializes the spec's ADD entries from srcDir into root and
// returns the image. It is the moral equivalent of `docker build`:
// downloading E's and D's and laying out the filesystem (paper §II).
func Build(spec *Spec, srcDir, root string) (*Image, error) {
	for _, add := range spec.Adds {
		src := filepath.Join(srcDir, filepath.FromSlash(strings.TrimPrefix(add.Src, "./")))
		dst, err := resolveInRoot(root, add.Dst)
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return nil, fmt.Errorf("container: %w", err)
		}
		if err := copyFile(src, dst); err != nil {
			return nil, fmt.Errorf("container: ADD %s: %w", add.Src, err)
		}
	}
	return &Image{Spec: spec, Root: root}, nil
}

// resolveInRoot maps an in-image absolute path to the host filesystem,
// rejecting escapes above the image root.
func resolveInRoot(root, imagePath string) (string, error) {
	rel := strings.TrimPrefix(imagePath, "/")
	dst := filepath.Join(root, filepath.FromSlash(rel))
	cleanRoot := filepath.Clean(root) + string(filepath.Separator)
	if !strings.HasPrefix(filepath.Clean(dst)+string(filepath.Separator), cleanRoot) {
		return "", fmt.Errorf("container: path %q escapes image root", imagePath)
	}
	return dst, nil
}

// HostPath maps an in-image path to its location on the host.
func (img *Image) HostPath(imagePath string) (string, error) {
	return resolveInRoot(img.Root, imagePath)
}

// Size returns the total byte size of the image's files — the
// download cost a user pays (paper §I).
func (img *Image) Size() (int64, error) {
	var total int64
	err := filepath.Walk(img.Root, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// Files lists the image's files (image-relative, sorted) with sizes.
func (img *Image) Files() ([]FileEntry, error) {
	var out []FileEntry
	err := filepath.Walk(img.Root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		rel, err := filepath.Rel(img.Root, p)
		if err != nil {
			return err
		}
		out = append(out, FileEntry{Path: "/" + filepath.ToSlash(rel), Size: info.Size()})
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, err
}

// FileEntry is one file in an image listing.
type FileEntry struct {
	Path string
	Size int64
}

// DebloatData builds a debloated copy of this image at newRoot: the
// named data file (in-image path) is replaced by its carved subset,
// everything else is copied through. This is the container-rebuild
// step of paper Fig. 3 — "the developer includes the corresponding
// debloated data file in the container instead of the original".
func (img *Image) DebloatData(newRoot, imageDataPath, dataset string, approx *array.IndexSet, chunk []int) (*Image, debloat.Stats, error) {
	var stats debloat.Stats
	srcData, err := img.HostPath(imageDataPath)
	if err != nil {
		return nil, stats, err
	}
	// Copy all files except the data file.
	err = filepath.Walk(img.Root, func(p string, info os.FileInfo, werr error) error {
		if werr != nil {
			return werr
		}
		if !info.Mode().IsRegular() || p == srcData {
			return nil
		}
		rel, err := filepath.Rel(img.Root, p)
		if err != nil {
			return err
		}
		dst := filepath.Join(newRoot, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return copyFile(p, dst)
	})
	if err != nil {
		return nil, stats, fmt.Errorf("container: copying image: %w", err)
	}
	dstData, err := resolveInRoot(newRoot, imageDataPath)
	if err != nil {
		return nil, stats, err
	}
	if err := os.MkdirAll(filepath.Dir(dstData), 0o755); err != nil {
		return nil, stats, err
	}
	stats, err = debloat.WriteSubset(srcData, dstData, dataset, approx, chunk)
	if err != nil {
		return nil, stats, err
	}
	return &Image{Spec: img.Spec, Root: newRoot}, stats, nil
}

// copyFile replaces dst with a copy of src through atomicfile, so a
// copy that fails partway leaves no partial dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return atomicfile.Write(dst, 0o666, func(out *os.File) error {
		_, err := io.Copy(out, in)
		return err
	})
}
