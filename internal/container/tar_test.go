package container

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestExportImportTarRoundTrip(t *testing.T) {
	img, _ := buildTestImage(t)
	var buf bytes.Buffer
	if err := img.ExportTar(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty tar")
	}

	back, err := ImportTar(bytes.NewReader(buf.Bytes()), img.Spec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	origFiles, err := img.Files()
	if err != nil {
		t.Fatal(err)
	}
	backFiles, err := back.Files()
	if err != nil {
		t.Fatal(err)
	}
	if len(backFiles) != len(origFiles) {
		t.Fatalf("imported %d files, want %d", len(backFiles), len(origFiles))
	}
	for i := range origFiles {
		if backFiles[i] != origFiles[i] {
			t.Fatalf("file %d: %v != %v", i, backFiles[i], origFiles[i])
		}
	}

	// The imported image still runs.
	rep, err := back.Run([]float64{1, 1}, "data", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misses != 0 {
		t.Errorf("imported image run had %d misses", rep.Misses)
	}
}

// TestTarSizeReflectsDebloating is the end-of-pipe claim: the shipped
// artifact (the tar) shrinks by roughly the data reduction.
func TestTarSizeReflectsDebloating(t *testing.T) {
	img, _ := buildTestImage(t)
	p, err := progForImage(img)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := groundTruthOf(p)
	if err != nil {
		t.Fatal(err)
	}
	deb, _, err := img.DebloatData(t.TempDir(), "/stencil/mnist.sdf", "data", truth, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	var origTar, debTar bytes.Buffer
	if err := img.ExportTar(&origTar); err != nil {
		t.Fatal(err)
	}
	if err := deb.ExportTar(&debTar); err != nil {
		t.Fatal(err)
	}
	if debTar.Len() >= origTar.Len() {
		t.Errorf("debloated tar (%d) not smaller than original (%d)", debTar.Len(), origTar.Len())
	}
}

func TestImportTarRejectsEscapes(t *testing.T) {
	// Handcraft a tar with a path escaping the root.
	var buf bytes.Buffer
	tw := newEvilTar(&buf, "../escape.txt", []byte("boom"))
	if tw != nil {
		t.Fatal(tw)
	}
	if _, err := ImportTar(bytes.NewReader(buf.Bytes()), &Spec{}, t.TempDir()); err == nil {
		t.Error("path escape should be rejected")
	}
}

// listDir returns the names in dir, or nil when it does not exist.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// A copy that fails partway leaves neither a partial file nor a
// temporary one: an ADD whose source is a directory fails on its first
// read, and a tar stream cut inside a file body fails mid-copy. A file
// already at the destination keeps its bytes.
func TestFailedCopyLeavesNoPartialFile(t *testing.T) {
	src := t.TempDir()
	if err := os.Mkdir(filepath.Join(src, "dir.sdf"), 0o755); err != nil {
		t.Fatal(err)
	}
	spec := &Spec{From: "scratch", Entrypoint: "CS2", Adds: []AddEntry{{Src: "dir.sdf", Dst: "/d/data.sdf"}}}
	root := t.TempDir()
	if _, err := Build(spec, src, root); err == nil {
		t.Fatal("ADD of a directory should fail")
	}
	if names := listDir(t, filepath.Join(root, "d")); len(names) != 0 {
		t.Errorf("failed ADD left %v", names)
	}

	var buf bytes.Buffer
	if err := newEvilTar(&buf, "d/data.sdf", bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:512+1000] // the header block and part of the body
	root = t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(root, "d", "data.sdf")
	if err := os.WriteFile(old, []byte("old bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ImportTar(bytes.NewReader(cut), spec, root); err == nil {
		t.Fatal("importing a cut tar stream should fail")
	}
	if names := listDir(t, filepath.Join(root, "d")); len(names) != 1 {
		t.Errorf("failed import left %v", names)
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != "old bytes" {
		t.Errorf("file under a failed import = %.40q, %v; want the old bytes", got, err)
	}
}
