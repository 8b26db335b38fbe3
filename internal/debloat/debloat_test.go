package debloat

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/array"
	"repro/internal/sdf"
	"repro/internal/workload"
)

// buildOriginal writes a 64x64 float64 file whose values equal the
// row-major linear index.
func buildOriginal(t *testing.T, dir string) (path string, space array.Space) {
	t.Helper()
	space = array.MustSpace(64, 64)
	path = filepath.Join(dir, "original.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", space, array.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, space
}

// approxLowerTriangle keeps indices with row >= col.
func approxLowerTriangle(space array.Space) *array.IndexSet {
	set := array.NewIndexSet(space)
	space.Each(func(ix array.Index) bool {
		if ix[0] >= ix[1] {
			set.Add(ix)
		}
		return true
	})
	return set
}

func TestWriteSubsetStatsAndValues(t *testing.T) {
	dir := t.TempDir()
	orig, space := buildOriginal(t, dir)
	approx := approxLowerTriangle(space)
	dst := filepath.Join(dir, "debloated.sdf")

	stats, err := WriteSubset(orig, dst, "data", approx, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalChunks != 64 {
		t.Errorf("TotalChunks = %d, want 64", stats.TotalChunks)
	}
	// Lower triangle of an 8x8 chunk grid: 36 chunks touch it.
	if stats.KeptChunks != 36 {
		t.Errorf("KeptChunks = %d, want 36", stats.KeptChunks)
	}
	if stats.Reduction() <= 0.3 || stats.Reduction() >= 0.6 {
		t.Errorf("Reduction = %v, want ~0.44", stats.Reduction())
	}
	if stats.KeptIndices != approx.Len() {
		t.Errorf("KeptIndices = %d, want %d", stats.KeptIndices, approx.Len())
	}

	// The debloated file must serve every approved element with the
	// original value.
	f, err := sdf.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := f.Dataset("data")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Debloated() {
		t.Error("output dataset not marked debloated")
	}
	checked := 0
	approx.Each(func(ix array.Index) bool {
		v, err := ds.ReadElement(ix)
		if err != nil {
			t.Fatalf("ReadElement(%v): %v", ix, err)
		}
		lin, _ := space.Linear(ix)
		if v != float64(lin) {
			t.Fatalf("value at %v = %v, want %v", ix, v, lin)
		}
		checked++
		return checked < 500
	})

	// Provenance stamps are present.
	if v, ok := ds.Attr("kondo.debloated"); !ok || v != "true" {
		t.Errorf("kondo.debloated attr = %q, %v", v, ok)
	}
	if v, ok := ds.Attr("kondo.granularity"); !ok || v != "chunk" {
		t.Errorf("kondo.granularity attr = %q, %v", v, ok)
	}

	// A far-away carved element must raise data-missing.
	if _, err := ds.ReadElement(array.NewIndex(0, 63)); !errors.Is(err, sdf.ErrDataMissing) {
		t.Errorf("carved element error = %v, want data missing", err)
	}

	// The file on disk must actually be smaller.
	so, sd, err := FileSizes(orig, dst)
	if err != nil {
		t.Fatal(err)
	}
	if sd >= so {
		t.Errorf("debloated file (%d) not smaller than original (%d)", sd, so)
	}
}

func TestWriteSubsetSpaceMismatch(t *testing.T) {
	dir := t.TempDir()
	orig, _ := buildOriginal(t, dir)
	wrong := array.NewIndexSet(array.MustSpace(32, 32))
	wrong.AddLinear(0)
	if _, err := WriteSubset(orig, filepath.Join(dir, "x.sdf"), "data", wrong, []int{8, 8}); err == nil {
		t.Error("space mismatch should error")
	}
	ok := array.NewIndexSet(array.MustSpace(64, 64))
	ok.AddLinear(0)
	if _, err := WriteSubset(orig, filepath.Join(dir, "y.sdf"), "nope", ok, []int{8, 8}); err == nil {
		t.Error("missing dataset should error")
	}
}

func TestRuntimeMissRaisesWithoutFetcher(t *testing.T) {
	dir := t.TempDir()
	orig, space := buildOriginal(t, dir)
	approx := approxLowerTriangle(space)
	dst := filepath.Join(dir, "debloated.sdf")
	if _, err := WriteSubset(orig, dst, "data", approx, []int{8, 8}); err != nil {
		t.Fatal(err)
	}
	f, err := sdf.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("data")
	rt := NewRuntimeContext(context.Background(), ds, nil)

	if _, err := rt.ReadElement(array.NewIndex(10, 5)); err != nil {
		t.Errorf("present element errored: %v", err)
	}
	if _, err := rt.ReadElement(array.NewIndex(0, 63)); !errors.Is(err, ErrDataMissing) {
		t.Errorf("missing element error = %v", err)
	}
	if rt.Misses() != 1 {
		t.Errorf("Misses = %d, want 1", rt.Misses())
	}
}

func TestRuntimeFetcherRecovers(t *testing.T) {
	dir := t.TempDir()
	orig, space := buildOriginal(t, dir)
	approx := approxLowerTriangle(space)
	dst := filepath.Join(dir, "debloated.sdf")
	if _, err := WriteSubset(orig, dst, "data", approx, []int{8, 8}); err != nil {
		t.Fatal(err)
	}
	f, err := sdf.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("data")
	rt := NewRuntimeContext(context.Background(), ds, localFetcher(t, orig))

	// A carved-away element is recovered with the right value.
	v, err := rt.ReadElement(array.NewIndex(0, 63))
	if err != nil {
		t.Fatal(err)
	}
	lin, _ := space.Linear(array.NewIndex(0, 63))
	if v != float64(lin) {
		t.Errorf("recovered value = %v, want %v", v, lin)
	}
	if rt.Misses() != 1 {
		t.Errorf("Misses = %d, want 1", rt.Misses())
	}

	// A slab crossing present and missing chunks reads correctly.
	vals, err := rt.ReadSlab([]int{0, 56}, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	sel := sdf.Slab([]int{0, 56}, []int{8, 8})
	i := 0
	sel.Each(func(ix array.Index) bool {
		lin, _ := space.Linear(ix)
		if vals[i] != float64(lin) {
			t.Fatalf("slab value at %v = %v, want %v", ix, vals[i], lin)
		}
		i++
		return true
	})
}

// TestRuntimeServesProgramIdentically is the paper's central
// correctness property (§III): running a program against D_Θ yields
// exactly the same values as against D, provided I'_Θ covers the
// accessed indices.
func TestRuntimeServesProgramIdentically(t *testing.T) {
	dir := t.TempDir()
	space := array.MustSpace(64, 64)
	orig := filepath.Join(dir, "orig.sdf")
	w := sdf.NewWriter(orig)
	dw, err := w.CreateDataset("data", space, array.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin) * 1.5
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	p := workload.MustCS(2, 64)
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "deb.sdf")
	if _, err := WriteSubset(orig, dst, "data", truth, []int{8, 8}); err != nil {
		t.Fatal(err)
	}

	// Run the program against both files and compare every read.
	of, err := sdf.Open(orig)
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	ods, _ := of.Dataset("data")

	df, err := sdf.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	dds, _ := df.Dataset("data")
	rt := NewRuntimeContext(context.Background(), dds, nil)

	for _, v := range [][]float64{{1, 1}, {0, 3}, {2, 7}, {5, 5}} {
		iv, err := workload.RunOnVirtual(p, v)
		if err != nil {
			t.Fatal(err)
		}
		iv.Each(func(ix array.Index) bool {
			want, err := ods.ReadElement(ix)
			if err != nil {
				t.Fatalf("original read %v: %v", ix, err)
			}
			got, err := rt.ReadElement(ix)
			if err != nil {
				t.Fatalf("debloated read %v: %v", ix, err)
			}
			if got != want {
				t.Fatalf("value at %v: debloated %v != original %v", ix, got, want)
			}
			return true
		})
	}
	if rt.Misses() != 0 {
		t.Errorf("full-truth debloat produced %d misses", rt.Misses())
	}
}
