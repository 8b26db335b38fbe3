package sdf

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/array"
)

// readAt is one ReadAt a recordingSource saw.
type readAt struct {
	off int64
	n   int
}

// recordingSource is an in-memory ByteSource that records the offset
// and length of every ReadAt, the way the audit layer sees them.
type recordingSource struct {
	memSource
	reads []readAt
}

func (r *recordingSource) ReadAt(p []byte, off int64) (int, error) {
	r.reads = append(r.reads, readAt{off, len(p)})
	return r.memSource.ReadAt(p, off)
}

// referenceReadHyperslab is the element-at-a-time algorithm the row
// walk replaced, kept as its oracle: one FileOffset per selected
// element, a run extended while each element's offset follows the
// previous one, one ReadAt per run, and a data-missing error that drops
// the pending run unread. With missing set it takes each carved-away
// element's value from missing instead, reading the pending run first.
func referenceReadHyperslab(d *Dataset, sel Hyperslab, missing func(array.Index) (float64, error)) ([]float64, error) {
	if err := sel.Validate(d.space); err != nil {
		return nil, err
	}
	out := make([]float64, 0, sel.NumElements())
	var curOff, curCount int64
	flush := func() error {
		if curCount == 0 {
			return nil
		}
		buf := make([]byte, curCount*d.elem)
		if _, err := d.file.src.ReadAt(buf, curOff); err != nil {
			return fmt.Errorf("sdf: hyperslab read of %q: %w", d.meta.Name, err)
		}
		for i := int64(0); i < curCount; i++ {
			out = append(out, decodeValue(buf[i*d.elem:], d.meta.DType))
		}
		curCount = 0
		return nil
	}
	var walkErr error
	sel.Each(func(ix array.Index) bool {
		abs, err := d.FileOffset(ix)
		if err != nil {
			if missing == nil || !isDataMissing(err) {
				walkErr = err
				return false
			}
			if walkErr = flush(); walkErr != nil {
				return false
			}
			v, err := missing(ix)
			if err != nil {
				walkErr = err
				return false
			}
			out = append(out, v)
			return true
		}
		if curCount > 0 && abs == curOff+curCount*d.elem {
			curCount++
			return true
		}
		if walkErr = flush(); walkErr != nil {
			return false
		}
		curOff, curCount = abs, 1
		return true
	})
	if walkErr == nil {
		walkErr = flush()
	}
	if walkErr != nil {
		return nil, walkErr
	}
	return out, nil
}

// randomSlabFile writes a file with one dataset of random rank (1–4),
// extents, dtype and layout: contiguous, chunked (chunk shapes need
// not divide the extents), debloated chunked or packed. It returns the
// file's bytes.
func randomSlabFile(t *testing.T, rng *rand.Rand, layout string) []byte {
	t.Helper()
	rank := 1 + rng.Intn(4)
	dims := make([]int, rank)
	for k := range dims {
		dims[k] = 1 + rng.Intn(9)
	}
	space := array.MustSpace(dims...)
	dtypes := []array.DType{array.Float32, array.Float64, array.Int32, array.Int64, array.LongDouble}
	dt := dtypes[rng.Intn(len(dtypes))]
	var chunk []int
	if layout == "chunked" || layout == "debloated" {
		chunk = make([]int, rank)
		for k := range chunk {
			chunk[k] = 1 + rng.Intn(dims[k])
		}
	}
	path := filepath.Join(t.TempDir(), "slab.sdf")
	w := NewWriter(path)
	dw, err := w.CreateDataset("d", space, dt, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)*1.5 - 40
	}); err != nil {
		t.Fatal(err)
	}
	switch layout {
	case "debloated":
		keep := map[int64]bool{}
		for lin := range dw.sd.chunked.NumChunks() {
			if rng.Intn(3) > 0 {
				keep[lin] = true
			}
		}
		if err := dw.OmitChunksExcept(keep); err != nil {
			t.Fatal(err)
		}
	case "packed":
		keep := array.NewIndexSet(space)
		for lin := range space.Size() {
			if rng.Intn(4) > 0 {
				keep.AddLinear(lin)
			}
		}
		if err := dw.PackElements(keep); err != nil {
			t.Fatal(err)
		}
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

// randomHyperslab returns a valid strided selection of space.
func randomHyperslab(rng *rand.Rand, space array.Space) Hyperslab {
	rank := space.Rank()
	h := Hyperslab{Start: make([]int, rank), Stride: make([]int, rank), Count: make([]int, rank), Block: make([]int, rank)}
	for k := range rank {
		dim := space.Dim(k)
		h.Block[k] = 1 + rng.Intn(dim)
		h.Stride[k] = h.Block[k] + rng.Intn(3)
		h.Count[k] = 1 + rng.Intn((dim-h.Block[k])/h.Stride[k]+1)
		if h.Count[k] == 1 && rng.Intn(2) == 0 {
			h.Stride[k] = 1 // a single block may have any stride
		}
		h.Start[k] = rng.Intn(dim - (h.Count[k]-1)*h.Stride[k] - h.Block[k] + 1)
	}
	return h
}

// openRecorded opens raw through a recordingSource.
func openRecorded(t *testing.T, raw []byte) (*Dataset, *recordingSource) {
	t.Helper()
	src := &recordingSource{memSource: memSource{bytes.NewReader(raw)}}
	f, err := OpenFrom(src)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	src.reads = nil
	return ds, src
}

// sameBits reports whether a and b hold bitwise-equal values.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// errText renders an error for comparison, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestReadHyperslabMatchesElementwise checks the row walk against the
// element-at-a-time reference on random strided selections of random
// files: bitwise-equal values, the same error text, and the same ReadAt
// (offset, length) sequence, so an audited read records the same
// events.
func TestReadHyperslabMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	misses := 0
	for _, layout := range []string{"contiguous", "chunked", "debloated", "packed"} {
		for file := 0; file < 60; file++ {
			raw := randomSlabFile(t, rng, layout)
			ds, src := openRecorded(t, raw)
			ref, refSrc := openRecorded(t, raw)
			for range 25 {
				sel := randomHyperslab(rng, ds.Space())
				src.reads, refSrc.reads = nil, nil
				got, err := ds.ReadHyperslab(sel)
				want, wantErr := referenceReadHyperslab(ref, sel, nil)
				if errText(err) != errText(wantErr) || !sameBits(got, want) {
					t.Fatalf("%s %v %v: got %v, %v; want %v, %v", layout, ds.Space(), sel, got, err, want, wantErr)
				}
				if !slices.Equal(src.reads, refSrc.reads) {
					t.Fatalf("%s %v %v: reads %v, want %v", layout, ds.Space(), sel, src.reads, refSrc.reads)
				}
				if isDataMissing(err) {
					misses++
				}
			}
		}
	}
	if misses == 0 {
		t.Fatal("no selection met a carved-away element")
	}
}

// TestReadHyperslabFuncMatchesElementwise checks the recovering read
// against the reference: the same values, and missing called for
// exactly the carved-away elements, in selection order.
func TestReadHyperslabFuncMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, layout := range []string{"contiguous", "debloated", "packed"} {
		for file := 0; file < 60; file++ {
			raw := randomSlabFile(t, rng, layout)
			ds, _ := openRecorded(t, raw)
			for range 25 {
				sel := randomHyperslab(rng, ds.Space())
				recorder := func(calls *[]int64) func(array.Index) (float64, error) {
					return func(ix array.Index) (float64, error) {
						lin, err := ds.Space().Linear(ix)
						*calls = append(*calls, lin)
						return -float64(lin), err
					}
				}
				var gotCalls, wantCalls []int64
				got, err := ds.ReadHyperslabFunc(sel, recorder(&gotCalls))
				want, wantErr := referenceReadHyperslab(ds, sel, recorder(&wantCalls))
				if errText(err) != errText(wantErr) || !sameBits(got, want) || !slices.Equal(gotCalls, wantCalls) {
					t.Fatalf("%s %v %v: got %v, %v, calls %v; want %v, %v, calls %v",
						layout, ds.Space(), sel, got, err, gotCalls, want, wantErr, wantCalls)
				}
			}
		}
	}
}
