package sdf

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/array"
)

// TestSetSlabMatchesSet writes random dense slabs of random values into
// random contiguous and chunked datasets, once with SetSlab and once
// element by element with Set. Slabs need not align with chunks, and
// some chunks stay unwritten (stored as zeros); the two files must be
// byte-identical.
func TestSetSlabMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dtypes := []array.DType{array.Float32, array.Float64, array.Int32, array.Int64, array.LongDouble}
	for trial := 0; trial < 100; trial++ {
		rank := 1 + rng.Intn(4)
		dims := make([]int, rank)
		for k := range dims {
			dims[k] = 1 + rng.Intn(9)
		}
		space := array.MustSpace(dims...)
		var chunk []int
		if trial%4 > 0 {
			chunk = make([]int, rank)
			for k := range chunk {
				chunk[k] = 1 + rng.Intn(dims[k])
			}
		}
		dt := dtypes[rng.Intn(len(dtypes))]
		type slab struct {
			start, count []int
			vals         []float64
		}
		var slabs []slab
		for range 1 + rng.Intn(3) {
			s := slab{start: make([]int, rank), count: make([]int, rank)}
			n := 1
			for k := range rank {
				s.start[k] = rng.Intn(dims[k])
				s.count[k] = 1 + rng.Intn(dims[k]-s.start[k])
				n *= s.count[k]
			}
			for range n {
				s.vals = append(s.vals, float64(rng.Intn(2000)-1000)/4)
			}
			slabs = append(slabs, s)
		}
		write := func(bySlab bool) []byte {
			path := filepath.Join(t.TempDir(), "w.sdf")
			w := NewWriter(path)
			dw, err := w.CreateDataset("d", space, dt, chunk)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range slabs {
				if bySlab {
					if err := dw.SetSlab(s.start, s.count, s.vals); err != nil {
						t.Fatal(err)
					}
					continue
				}
				i := 0
				Slab(s.start, s.count).Each(func(ix array.Index) bool {
					if err := dw.Set(ix, s.vals[i]); err != nil {
						t.Fatal(err)
					}
					i++
					return true
				})
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		if !bytes.Equal(write(true), write(false)) {
			t.Fatalf("%v chunk %v %v: SetSlab and Set wrote different files", dims, chunk, dt)
		}
	}
}

func TestSetSlabRejectsBadInput(t *testing.T) {
	w := NewWriter(filepath.Join(t.TempDir(), "w.sdf"))
	dw, err := w.CreateDataset("d", array.MustSpace(4, 6), array.Float64, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.SetSlab([]int{1, 1}, []int{2, 2}, make([]float64, 3)); err == nil {
		t.Error("SetSlab accepted 3 values for a 4-element slab")
	}
	if err := dw.SetSlab([]int{3, 5}, []int{2, 1}, make([]float64, 2)); err == nil {
		t.Error("SetSlab accepted a slab past the space")
	}
	if err := dw.SetSlab([]int{0}, []int{2}, make([]float64, 2)); err == nil {
		t.Error("SetSlab accepted a slab of the wrong rank")
	}
}
