package trace

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/array"
	"repro/internal/ioevent"
	"repro/internal/sdf"
)

// pointwiseIndices is the reference resolver: it asks FileOffset for
// every element of the space and keeps the element iff some range
// touches one of its bytes.
func pointwiseIndices(t *testing.T, ds *sdf.Dataset, ranges []ioevent.Interval) *array.IndexSet {
	t.Helper()
	set := array.NewIndexSet(ds.Space())
	elem := int64(ds.DType().Size())
	ds.Space().Each(func(ix array.Index) bool {
		off, err := ds.FileOffset(ix)
		if err != nil {
			return true // carved away: no bytes to touch
		}
		for _, r := range ranges {
			if r.Start < off+elem && off < r.End {
				if _, err := set.Add(ix); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		return true
	})
	return set
}

// TestResolveMatchesPointwise checks the run resolver against the
// per-element reference on random byte ranges, inside, across and
// outside the data and cutting elements at both ends, over every
// layout: contiguous, chunked with edge padding in 2-D to 4-D,
// debloated chunked with chunks carved away, and packed.
func TestResolveMatchesPointwise(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name  string
		space array.Space
		dt    array.DType
		chunk []int
		build func(dw *sdf.DatasetWriter) error
	}{
		{name: "contiguous", space: array.MustSpace(9, 11), dt: array.Float64},
		{name: "chunked-2d", space: array.MustSpace(13, 10), dt: array.LongDouble, chunk: []int{4, 3}},
		{name: "chunked-3d", space: array.MustSpace(5, 7, 6), dt: array.Float32, chunk: []int{2, 3, 4}},
		{name: "chunked-4d", space: array.MustSpace(3, 5, 4, 5), dt: array.Int64, chunk: []int{2, 2, 3, 2}},
		{
			name: "debloated", space: array.MustSpace(10, 9), dt: array.Float64, chunk: []int{3, 4},
			build: func(dw *sdf.DatasetWriter) error {
				return dw.OmitChunksExcept(map[int64]bool{0: true, 2: true, 4: true, 7: true, 11: true})
			},
		},
		{
			name: "packed", space: array.MustSpace(8, 12), dt: array.Int32,
			build: func(dw *sdf.DatasetWriter) error {
				keep := array.NewIndexSet(array.MustSpace(8, 12))
				for _, r := range [][2]int64{{0, 0}, {3, 17}, {20, 20}, {40, 63}, {95, 95}} {
					if _, err := keep.AddRun(r[0], r[1]); err != nil {
						return err
					}
				}
				return dw.PackElements(keep)
			},
		},
	}
	rng := rand.New(rand.NewSource(19))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".sdf")
			w := sdf.NewWriter(path)
			dw, err := w.CreateDataset("d", c.space, c.dt, c.chunk)
			if err != nil {
				t.Fatal(err)
			}
			if err := dw.Fill(func(array.Index) float64 { return 1 }); err != nil {
				t.Fatal(err)
			}
			if c.build != nil {
				if err := c.build(dw); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := sdf.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ds, err := f.Dataset("d")
			if err != nil {
				t.Fatal(err)
			}
			size := info.Size()
			for trial := 0; trial < 200; trial++ {
				ranges := make([]ioevent.Interval, 1+rng.Intn(6))
				for i := range ranges {
					start := rng.Int63n(size + 64)
					ranges[i] = ioevent.Interval{Start: start, End: start + 1 + rng.Int63n(size/3)}
				}
				got, err := ResolveIndices(ds, ranges)
				if err != nil {
					t.Fatal(err)
				}
				if want := pointwiseIndices(t, ds, ranges); !got.Equal(want) {
					t.Fatalf("ranges %v: resolved %d indices in %d runs, reference %d in %d runs",
						ranges, got.Len(), got.RunCount(), want.Len(), want.RunCount())
				}
			}
		})
	}
}
