package sdf

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/array"
)

// writeTestFile creates an sdf file with one dataset filled from fn
// and returns its path.
func writeTestFile(t *testing.T, name string, space array.Space, dt array.DType, chunk []int, fn func(array.Index) float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.sdf")
	w := NewWriter(path)
	dw, err := w.CreateDataset(name, space, dt, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(fn); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func linValue(space array.Space) func(array.Index) float64 {
	return func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	}
}

func TestRoundTripContiguous(t *testing.T) {
	space := array.MustSpace(8, 6)
	path := writeTestFile(t, "data", space, array.Float64, nil, linValue(space))
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := f.Dataset("data")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "data" || ds.DType() != array.Float64 || ds.Debloated() {
		t.Errorf("metadata wrong: %q %v %v", ds.Name(), ds.DType(), ds.Debloated())
	}
	space.Each(func(ix array.Index) bool {
		v, err := ds.ReadElement(ix)
		if err != nil {
			t.Fatalf("ReadElement(%v): %v", ix, err)
		}
		lin, _ := space.Linear(ix)
		if v != float64(lin) {
			t.Fatalf("ReadElement(%v) = %v, want %v", ix, v, lin)
		}
		return true
	})
}

func TestRoundTripChunkedAllDTypes(t *testing.T) {
	space := array.MustSpace(5, 7)
	for _, dt := range []array.DType{array.Float32, array.Float64, array.Int32, array.Int64, array.LongDouble} {
		t.Run(dt.String(), func(t *testing.T) {
			path := writeTestFile(t, "d", space, dt, []int{2, 3}, linValue(space))
			f, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ds, err := f.Dataset("d")
			if err != nil {
				t.Fatal(err)
			}
			space.Each(func(ix array.Index) bool {
				v, err := ds.ReadElement(ix)
				if err != nil {
					t.Fatalf("ReadElement(%v): %v", ix, err)
				}
				lin, _ := space.Linear(ix)
				if v != float64(lin) {
					t.Fatalf("ReadElement(%v) = %v, want %v (dtype %v)", ix, v, lin, dt)
				}
				return true
			})
		})
	}
}

func TestMultipleDatasets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "multi.sdf")
	w := NewWriter(path)
	s1 := array.MustSpace(4, 4)
	s2 := array.MustSpace(3, 3, 3)
	d1, err := w.CreateDataset("zeta", s1, array.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := w.CreateDataset("alpha", s2, array.Int32, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Fill(func(array.Index) float64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	if err := d2.Fill(func(array.Index) float64 { return 2 }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := f.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("Names = %v", names)
	}
	ds, err := f.Dataset("alpha")
	if err != nil {
		t.Fatal(err)
	}
	v, err := ds.ReadElement(array.NewIndex(2, 2, 2))
	if err != nil || v != 2 {
		t.Errorf("alpha element = %v, %v", v, err)
	}
	if _, err := f.Dataset("nope"); err == nil {
		t.Error("missing dataset should error")
	}
}

func TestWriterValidation(t *testing.T) {
	w := NewWriter(filepath.Join(t.TempDir(), "x.sdf"))
	s := array.MustSpace(4, 4)
	if _, err := w.CreateDataset("", s, array.Float64, nil); err == nil {
		t.Error("empty name should error")
	}
	if _, err := w.CreateDataset("a", s, array.DType(42), nil); err == nil {
		t.Error("bad dtype should error")
	}
	if _, err := w.CreateDataset("a", s, array.Float64, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CreateDataset("a", s, array.Float64, nil); err == nil {
		t.Error("duplicate name should error")
	}
	if _, err := w.CreateDataset("b", s, array.Float64, []int{0, 1}); err == nil {
		t.Error("bad chunk shape should error")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("double Close should error")
	}
	if _, err := w.CreateDataset("c", s, array.Float64, nil); err == nil {
		t.Error("CreateDataset after Close should error")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	space := array.MustSpace(4, 4)
	path := writeTestFile(t, "d", space, array.Float64, nil, linValue(space))

	// Bad magic.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	badPath := filepath.Join(t.TempDir(), "badmagic.sdf")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badPath); err == nil {
		t.Error("bad magic should fail to open")
	}

	// Corrupt metadata (flip a byte inside the metadata block).
	bad2 := append([]byte(nil), raw...)
	bad2[headerSize+3] ^= 0xFF
	badPath2 := filepath.Join(t.TempDir(), "badmeta.sdf")
	if err := os.WriteFile(badPath2, bad2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badPath2); err == nil {
		t.Error("corrupt metadata should fail CRC check")
	}

	// Truncated file.
	badPath3 := filepath.Join(t.TempDir(), "trunc.sdf")
	if err := os.WriteFile(badPath3, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badPath3); err == nil {
		t.Error("truncated file should fail to open")
	}
}

func TestFileOffsetResolveOffsetRoundTrip(t *testing.T) {
	for _, chunk := range [][]int{nil, {3, 4}} {
		space := array.MustSpace(7, 9)
		path := writeTestFile(t, "d", space, array.LongDouble, chunk, linValue(space))
		f, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := f.Dataset("d")
		if err != nil {
			t.Fatal(err)
		}
		space.Each(func(ix array.Index) bool {
			abs, err := ds.FileOffset(ix)
			if err != nil {
				t.Fatalf("FileOffset(%v): %v", ix, err)
			}
			back, err := ds.ResolveOffset(abs)
			if err != nil {
				t.Fatalf("ResolveOffset(%d): %v", abs, err)
			}
			if !back.Equal(ix) {
				t.Fatalf("round trip %v -> %d -> %v (chunk %v)", ix, abs, back, chunk)
			}
			// The element's last byte names it too.
			mid, err := ds.ResolveOffset(abs + 15)
			if err != nil || !mid.Equal(ix) {
				t.Fatalf("ResolveOffset(%d) = %v, %v; want %v (chunk %v)", abs+15, mid, err, ix, chunk)
			}
			return true
		})
		if _, err := ds.ResolveOffset(1); err == nil {
			t.Error("offset in header should not resolve")
		}
		f.Close()
	}
}

func TestDebloatedFile(t *testing.T) {
	space := array.MustSpace(8, 8)
	path := filepath.Join(t.TempDir(), "debloat.sdf")
	w := NewWriter(path)
	dw, err := w.CreateDataset("d", space, array.Float64, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(linValue(space)); err != nil {
		t.Fatal(err)
	}
	// Keep only chunks 0 and 3 (top-left and bottom-right 4x4 blocks).
	if err := dw.OmitChunksExcept(map[int64]bool{0: true, 3: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := f.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Debloated() {
		t.Error("dataset should be marked debloated")
	}
	if ds.StoredBytes() != 2*16*8 {
		t.Errorf("StoredBytes = %d, want %d", ds.StoredBytes(), 2*16*8)
	}
	if ds.LogicalBytes() != 4*16*8 {
		t.Errorf("LogicalBytes = %d, want %d", ds.LogicalBytes(), 4*16*8)
	}

	// Present element.
	v, err := ds.ReadElement(array.NewIndex(1, 1))
	if err != nil || v != 9 {
		t.Errorf("present element = %v, %v", v, err)
	}
	v, err = ds.ReadElement(array.NewIndex(7, 7))
	if err != nil || v != 63 {
		t.Errorf("present element (7,7) = %v, %v", v, err)
	}
	// Carved-away element.
	if _, err := ds.ReadElement(array.NewIndex(0, 7)); !isDataMissing(err) {
		t.Errorf("carved element error = %v, want ErrDataMissing", err)
	}
	if _, err := ds.FileOffset(array.NewIndex(7, 0)); !isDataMissing(err) {
		t.Errorf("carved FileOffset error = %v, want ErrDataMissing", err)
	}
}

func isDataMissing(err error) bool {
	if err == nil {
		return false
	}
	for unwrap := err; unwrap != nil; {
		if unwrap == ErrDataMissing {
			return true
		}
		u, ok := unwrap.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		unwrap = u.Unwrap()
	}
	return false
}

func TestStoredBytesMatchFileSize(t *testing.T) {
	space := array.MustSpace(16, 16)
	path := writeTestFile(t, "d", space, array.LongDouble, []int{4, 4}, linValue(space))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("d")
	// Data bytes: 16*16*16 = 4096. File adds header + metadata.
	if ds.StoredBytes() != 16*16*16 {
		t.Errorf("StoredBytes = %d", ds.StoredBytes())
	}
	if info.Size() < ds.StoredBytes()+headerSize {
		t.Errorf("file size %d smaller than data %d", info.Size(), ds.StoredBytes())
	}
}

func TestLongDoubleRoundTripsFloat64Payload(t *testing.T) {
	space := array.MustSpace(2, 2)
	want := math.Pi
	path := writeTestFile(t, "d", space, array.LongDouble, nil, func(array.Index) float64 { return want })
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("d")
	v, err := ds.ReadElement(array.NewIndex(1, 0))
	if err != nil || v != want {
		t.Errorf("long double payload = %v, %v", v, err)
	}
}

// FileOffset on a stored chunk allocates nothing: the Merkle build and
// the debloated write call it once per element.
func TestFileOffsetStoredChunkAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is skipped in -short (race) runs")
	}
	space := array.MustSpace(8, 8)
	path := writeTestFile(t, "d", space, array.Float64, []int{4, 4}, linValue(space))
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := f.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	ix := array.NewIndex(5, 6)
	var off int64
	allocs := testing.AllocsPerRun(100, func() { off, err = ds.FileOffset(ix) })
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ds.ReadElement(ix); err != nil || v != 5*8+6 {
		t.Fatalf("element at offset %d reads %v, %v", off, v, err)
	}
	if allocs != 0 {
		t.Fatalf("FileOffset allocates %.1f per call, want 0", allocs)
	}
}
