package container

import (
	"archive/tar"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atomicfile"
)

// Image distribution: a built image exports to a tar stream (the unit
// a container registry would ship, and what the user downloads — the
// cost Fig. 9's reductions translate into), and imports back to a
// directory-rooted image.

// ExportTar writes the image's files to w as a tar archive. Paths are
// stored image-relative (no leading slash), in sorted order for
// byte-stable output.
func (img *Image) ExportTar(w io.Writer) error {
	files, err := img.Files()
	if err != nil {
		return err
	}
	tw := tar.NewWriter(w)
	for _, fe := range files {
		host, err := img.HostPath(fe.Path)
		if err != nil {
			return err
		}
		hdr := &tar.Header{
			Name: strings.TrimPrefix(fe.Path, "/"),
			Mode: 0o644,
			Size: fe.Size,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return fmt.Errorf("container: tar header for %s: %w", fe.Path, err)
		}
		f, err := os.Open(host)
		if err != nil {
			return err
		}
		if _, err := io.Copy(tw, f); err != nil {
			f.Close()
			return fmt.Errorf("container: tar body for %s: %w", fe.Path, err)
		}
		f.Close()
	}
	return tw.Close()
}

// ImportTar materializes a tar stream produced by ExportTar under
// root and returns the image. Each file is replaced atomically, so a
// truncated stream leaves no partial file. spec is attached as the
// image's specification (tar archives carry only files).
func ImportTar(r io.Reader, spec *Spec, root string) (*Image, error) {
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("container: reading tar: %w", err)
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		dst, err := resolveInRoot(root, "/"+hdr.Name)
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return nil, err
		}
		if err := atomicfile.Write(dst, 0o666, func(out *os.File) error {
			if _, err := io.Copy(out, tr); err != nil { //nolint:gosec // sizes bounded by archive
				return fmt.Errorf("container: extracting %s: %w", hdr.Name, err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return &Image{Spec: spec, Root: root}, nil
}
