package sdf

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/array"
)

// writePackedFile creates a packed dataset keeping the given linear
// positions out of a space filled with value = linear position.
func writePackedFile(t *testing.T, space array.Space, keepLins []int64) string {
	t.Helper()
	keep := array.NewIndexSet(space)
	for _, lin := range keepLins {
		if !keep.AddLinear(lin) {
			t.Fatalf("bad keep lin %d", lin)
		}
	}
	path := filepath.Join(t.TempDir(), "packed.sdf")
	w := NewWriter(path)
	dw, err := w.CreateDataset("d", space, array.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	}); err != nil {
		t.Fatal(err)
	}
	if err := dw.PackElements(keep); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPackRunsFromSetCoalesces(t *testing.T) {
	space := array.MustSpace(8, 8)
	keep := array.NewIndexSet(space)
	for _, lin := range []int64{5, 6, 7, 20, 30, 31} {
		keep.AddLinear(lin)
	}
	runs := packRunsFromSet(keep)
	if len(runs) != 3 {
		t.Fatalf("runs = %+v, want 3 coalesced runs", runs)
	}
	want := []struct{ start, count int64 }{{5, 3}, {20, 1}, {30, 2}}
	for i, w := range want {
		if runs[i].startLin != w.start || runs[i].count != w.count {
			t.Errorf("run %d = %+v, want %+v", i, runs[i], w)
		}
	}
}

func TestPackedRoundTrip(t *testing.T) {
	space := array.MustSpace(8, 8)
	kept := []int64{0, 1, 2, 10, 11, 40, 63}
	path := writePackedFile(t, space, kept)

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
		t.Error("packed dataset should be marked debloated")
	}
	if ds.StoredBytes() != int64(len(kept))*8 {
		t.Errorf("StoredBytes = %d, want %d", ds.StoredBytes(), len(kept)*8)
	}
	if ds.LogicalBytes() != 64*8 {
		t.Errorf("LogicalBytes = %d, want %d", ds.LogicalBytes(), 64*8)
	}

	keptSet := map[int64]bool{}
	for _, lin := range kept {
		keptSet[lin] = true
	}
	space.Each(func(ix array.Index) bool {
		lin, _ := space.Linear(ix)
		v, err := ds.ReadElement(ix)
		if keptSet[lin] {
			if err != nil {
				t.Fatalf("kept element %v: %v", ix, err)
			}
			if v != float64(lin) {
				t.Fatalf("kept element %v = %v, want %v", ix, v, lin)
			}
		} else if !errors.Is(err, ErrDataMissing) {
			t.Fatalf("dropped element %v error = %v, want data missing", ix, err)
		}
		return true
	})
}

func TestPackedOffsetResolution(t *testing.T) {
	space := array.MustSpace(8, 8)
	kept := []int64{3, 4, 5, 33, 50}
	path := writePackedFile(t, space, kept)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("d")

	for _, lin := range kept {
		ix, _ := space.Unlinear(lin)
		abs, err := ds.FileOffset(ix)
		if err != nil {
			t.Fatalf("FileOffset(%v): %v", ix, err)
		}
		back, err := ds.ResolveOffset(abs)
		if err != nil {
			t.Fatalf("ResolveOffset(%d): %v", abs, err)
		}
		if !back.Equal(ix) {
			t.Fatalf("round trip %v -> %d -> %v", ix, abs, back)
		}
	}
	// The whole file walks as the 3 stored runs (3-5, 33, 50).
	var runs [][2]int64
	ds.IndexRuns(0, math.MaxInt64, func(first, last int64) { runs = append(runs, [2]int64{first, last}) })
	if want := [][2]int64{{3, 5}, {33, 33}, {50, 50}}; !reflect.DeepEqual(runs, want) {
		t.Errorf("IndexRuns over the file = %v, want %v", runs, want)
	}
	// A byte inside a stored element names that element.
	abs, _ := ds.FileOffset(array.NewIndex(4, 1))
	if ix, err := ds.ResolveOffset(abs + 5); err != nil || !ix.Equal(array.NewIndex(4, 1)) {
		t.Errorf("ResolveOffset(%d) = %v, %v; want (4, 1)", abs+5, ix, err)
	}
	// Header offset does not resolve.
	if _, err := ds.ResolveOffset(0); err == nil {
		t.Error("header offset should not resolve")
	}
}

func TestPackedHyperslabWithinRuns(t *testing.T) {
	space := array.MustSpace(8, 8)
	// Keep rows 2 and 3 entirely: linear 16..31.
	var kept []int64
	for lin := int64(16); lin < 32; lin++ {
		kept = append(kept, lin)
	}
	path := writePackedFile(t, space, kept)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("d")
	vals, err := ds.ReadHyperslab(Slab([]int{2, 0}, []int{2, 8}))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != float64(16+i) {
			t.Fatalf("vals[%d] = %v, want %v", i, v, 16+i)
		}
	}
	// A slab escaping the kept rows misses.
	if _, err := ds.ReadHyperslab(Slab([]int{1, 0}, []int{2, 8})); !errors.Is(err, ErrDataMissing) {
		t.Errorf("slab over dropped row error = %v", err)
	}
}

func TestPackElementsValidation(t *testing.T) {
	space := array.MustSpace(4, 4)
	w := NewWriter(filepath.Join(t.TempDir(), "x.sdf"))
	dw, err := w.CreateDataset("chunked", space, array.Float64, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	keep := array.NewIndexSet(space)
	keep.AddLinear(0)
	if err := dw.PackElements(keep); err == nil {
		t.Error("PackElements on chunked dataset should error")
	}
	dw2, err := w.CreateDataset("contig", space, array.Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := array.NewIndexSet(array.MustSpace(2, 2))
	wrong.AddLinear(0)
	if err := dw2.PackElements(wrong); err == nil {
		t.Error("PackElements with mismatched space should error")
	}
}
