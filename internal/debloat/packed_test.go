package debloat

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/array"
	"repro/internal/sdf"
	"repro/internal/workload"
)

func TestWritePackedExactReduction(t *testing.T) {
	dir := t.TempDir()
	orig, space := buildOriginal(t, dir)
	approx := approxLowerTriangle(space)
	dst := filepath.Join(dir, "packed.sdf")

	stats, err := WritePacked(orig, dst, "data", approx)
	if err != nil {
		t.Fatal(err)
	}
	// Element-granular: stored bytes are exactly |approx| elements.
	if stats.DebloatedBytes != int64(approx.Len())*8 {
		t.Errorf("DebloatedBytes = %d, want %d", stats.DebloatedBytes, approx.Len()*8)
	}
	wantReduction := 1 - float64(approx.Len())/float64(space.Size())
	if got := stats.Reduction(); got < wantReduction-1e-9 || got > wantReduction+1e-9 {
		t.Errorf("Reduction = %v, want %v", got, wantReduction)
	}

	f, err := sdf.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("data")
	// Kept values exact; dropped values missing.
	n := 0
	space.Each(func(ix array.Index) bool {
		v, err := ds.ReadElement(ix)
		lin, _ := space.Linear(ix)
		if approx.Contains(ix) {
			if err != nil || v != float64(lin) {
				t.Fatalf("kept %v = %v, %v", ix, v, err)
			}
		} else if !errors.Is(err, sdf.ErrDataMissing) {
			t.Fatalf("dropped %v error = %v", ix, err)
		}
		n++
		return n < 2000
	})
}

func TestPackedBeatsChunkedReduction(t *testing.T) {
	// For the same approximation, element granularity must reduce at
	// least as much as chunk granularity.
	dir := t.TempDir()
	orig, space := buildOriginal(t, dir)
	approx := approxLowerTriangle(space)

	chunked := filepath.Join(dir, "chunked.sdf")
	sChunk, err := WriteSubset(orig, chunked, "data", approx, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	packed := filepath.Join(dir, "packed.sdf")
	sPack, err := WritePacked(orig, packed, "data", approx)
	if err != nil {
		t.Fatal(err)
	}
	if sPack.DebloatedBytes >= sChunk.DebloatedBytes {
		t.Errorf("packed %d bytes not below chunked %d", sPack.DebloatedBytes, sChunk.DebloatedBytes)
	}
	_ = space
}

func TestPackedRuntimeServesProgram(t *testing.T) {
	dir := t.TempDir()
	orig, _ := buildOriginal(t, dir)
	p := workload.MustCS(2, 64)
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "packed.sdf")
	if _, err := WritePacked(orig, dst, "data", truth); err != nil {
		t.Fatal(err)
	}
	f, err := sdf.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("data")
	rt := NewRuntimeContext(context.Background(), ds, nil)
	// Every supported run works against the packed file.
	for _, v := range [][]float64{{1, 1}, {0, 2}, {3, 9}} {
		if err := p.Run(v, &workload.Env{Acc: rt}); err != nil {
			t.Fatalf("run %v: %v", v, err)
		}
	}
	if rt.Misses() != 0 {
		t.Errorf("misses = %d", rt.Misses())
	}
}

func TestWritePackedSpaceMismatch(t *testing.T) {
	dir := t.TempDir()
	orig, _ := buildOriginal(t, dir)
	wrong := array.NewIndexSet(array.MustSpace(8, 8))
	wrong.AddLinear(1)
	if _, err := WritePacked(orig, filepath.Join(dir, "x.sdf"), "data", wrong); err == nil {
		t.Error("space mismatch should error")
	}
}

// writePackedElementwise is WritePacked's element-at-a-time reference:
// one ReadElement and one one-element SetSlab per kept index.
func writePackedElementwise(t *testing.T, srcPath, dstPath string, approx *array.IndexSet) {
	t.Helper()
	src, err := sdf.Open(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ds, err := src.Dataset("data")
	if err != nil {
		t.Fatal(err)
	}
	w := sdf.NewWriter(dstPath)
	dw, err := w.CreateDataset("data", ds.Space(), ds.DType(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := stampProvenance(dw, "element", approx.Len()); err != nil {
		t.Fatal(err)
	}
	one := make([]int, ds.Space().Rank())
	for k := range one {
		one[k] = 1
	}
	approx.Each(func(ix array.Index) bool {
		v, err := ds.ReadElement(ix)
		if err == nil {
			err = dw.SetSlab(ix, one, []float64{v})
		}
		if err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err := dw.PackElements(approx); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// WritePacked's row-wise copy writes the element-wise reference's
// bytes, over chunked and contiguous origins and runs that start, end
// and wrap mid-row.
func TestWritePackedMatchesElementwise(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	for i, c := range []struct {
		dims, chunk []int
		dt          array.DType
	}{
		{[]int{37, 23}, []int{5, 7}, array.Float64},
		{[]int{9, 11, 13}, nil, array.LongDouble},
		{[]int{64}, []int{10}, array.Float32},
	} {
		space := array.MustSpace(c.dims...)
		src := filepath.Join(dir, fmt.Sprintf("origin%d.sdf", i))
		w := sdf.NewWriter(src)
		dw, err := w.CreateDataset("data", space, c.dt, c.chunk)
		if err != nil {
			t.Fatal(err)
		}
		if err := dw.Fill(func(array.Index) float64 { return float64(rng.Intn(1 << 20)) }); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		approx := array.NewIndexSet(space)
		for k := 0; k < 40; k++ {
			lo := rng.Int63n(space.Size())
			hi := min(lo+rng.Int63n(int64(2*c.dims[len(c.dims)-1])), space.Size()-1)
			if _, err := approx.AddRun(lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		got, want := filepath.Join(dir, fmt.Sprintf("got%d.sdf", i)), filepath.Join(dir, fmt.Sprintf("want%d.sdf", i))
		if _, err := WritePacked(src, got, "data", approx); err != nil {
			t.Fatal(err)
		}
		writePackedElementwise(t, src, want, approx)
		gb, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("%v: WritePacked's %d bytes differ from the element-wise reference's %d", c.dims, len(gb), len(wb))
		}
	}
}
