package sdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/array"
)

// TestOpenNeverPanicsOnCorruptInput flips random bytes of a valid file
// and checks that Open either fails cleanly or yields a readable file
// — never panics. The CRC catches metadata damage; damage to the data
// region is indistinguishable from valid data by design (values are
// opaque), so a successful open is acceptable there.
func TestOpenNeverPanicsOnCorruptInput(t *testing.T) {
	space := array.MustSpace(8, 8)
	path := writeTestFile(t, "d", space, array.Float64, []int{4, 4}, linValue(space))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()
	for trial := 0; trial < 200; trial++ {
		corrupted := append([]byte(nil), orig...)
		flips := 1 + rng.Intn(4)
		for i := 0; i < flips; i++ {
			pos := rng.Intn(len(corrupted))
			corrupted[pos] ^= byte(1 + rng.Intn(255))
		}
		p := filepath.Join(dir, "c.sdf")
		if err := os.WriteFile(p, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic on corrupt input: %v", trial, r)
				}
			}()
			f, err := Open(p)
			if err != nil {
				return // clean rejection
			}
			// If it opened, reading must not panic either.
			for _, name := range f.Names() {
				ds, err := f.Dataset(name)
				if err != nil {
					continue
				}
				ds.ReadElement(array.NewIndex(0, 0))
				ds.ReadHyperslab(Slab([]int{0, 0}, []int{2, 2}))
			}
			f.Close()
		}()
	}
}

// TestOpenNeverPanicsOnTruncation truncates a valid file at every
// length and checks Open fails cleanly.
func TestOpenNeverPanicsOnTruncation(t *testing.T) {
	space := array.MustSpace(4, 4)
	path := writeTestFile(t, "d", space, array.Float64, nil, linValue(space))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	step := len(orig)/64 + 1
	for cut := 0; cut < len(orig); cut += step {
		p := filepath.Join(dir, "t.sdf")
		if err := os.WriteFile(p, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut %d: panic: %v", cut, r)
				}
			}()
			if f, err := Open(p); err == nil {
				f.Close()
			}
		}()
	}
}

// TestConcurrentReaders exercises parallel element reads on one open
// file; ReadAt is stateless, so this must be race-free (run with
// -race).
func TestConcurrentReaders(t *testing.T) {
	space := array.MustSpace(16, 16)
	path := writeTestFile(t, "d", space, array.Float64, []int{4, 4}, linValue(space))
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("d")
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				lin := int64((g*200 + i) % 256)
				ix, _ := space.Unlinear(lin)
				v, err := ds.ReadElement(ix)
				if err != nil {
					done <- err
					return
				}
				if v != float64(lin) {
					done <- errValue
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errValue = os.ErrInvalid

// memSource is an in-memory ByteSource.
type memSource struct{ *bytes.Reader }

func (memSource) Close() error { return nil }

// openAndRead opens data through OpenFrom and, if that succeeds, reads
// one element of every dataset and walks the index runs of all the
// file's bytes: neither may panic.
func openAndRead(data []byte) {
	f, err := OpenFrom(memSource{bytes.NewReader(data)})
	if err != nil {
		return
	}
	for _, name := range f.Names() {
		ds, err := f.Dataset(name)
		if err != nil {
			continue
		}
		ds.ReadElement(make(array.Index, ds.Space().Rank()))
		ds.IndexRuns(0, int64(len(data)), func(int64, int64) {})
	}
}

// FuzzOpen feeds arbitrary bytes to OpenFrom: once as given, and once
// with the header's metadata checksum recomputed, so that mutations
// reach the metadata decoder instead of stopping at the checksum. The
// seed corpus under testdata/fuzz/FuzzOpen holds a contiguous, a
// chunked, a debloated chunked and a packed file.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		openAndRead(data)
		if len(data) < headerSize {
			return
		}
		metaLen := int64(binary.LittleEndian.Uint32(data[8:]))
		if metaLen > int64(len(data)-headerSize) {
			return
		}
		fixed := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(fixed[12:], metaCRC(fixed[headerSize:headerSize+metaLen]))
		openAndRead(fixed)
	})
}

// hostileFile returns a header claiming a metaLen-byte metadata block,
// followed by meta, with the checksum computed over meta.
func hostileFile(metaLen uint32, meta []byte) []byte {
	b := make([]byte, headerSize, headerSize+len(meta))
	copy(b, Magic)
	binary.LittleEndian.PutUint16(b[4:], Version)
	binary.LittleEndian.PutUint32(b[8:], metaLen)
	binary.LittleEndian.PutUint32(b[12:], metaCRC(meta))
	return append(b, meta...)
}

// TestHostileMetadataAllocatesLittle opens files whose header or
// metadata claims far more than the file holds: a 16-byte file
// claiming a 4 GiB metadata block, and 39-byte metadata blocks
// claiming 2^20 datasets or 2^20 attributes. Each open must fail
// having allocated well under 1 MiB, not the claimed size.
func TestHostileMetadataAllocatesLittle(t *testing.T) {
	meta, err := encodeMeta([]*datasetMeta{{
		Name: "d", DType: array.Float64, Layout: layoutContiguous, Dims: []int{4}, DataOff: 64, DataLen: 32,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(meta) != 39 {
		t.Fatalf("metadata block is %d bytes, want 39", len(meta))
	}
	manyDatasets := append([]byte(nil), meta...)
	binary.LittleEndian.PutUint32(manyDatasets, 1<<20)
	manyAttrs := append([]byte(nil), meta...)
	binary.LittleEndian.PutUint32(manyAttrs[len(meta)-4:], 1<<20)
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"meta length", "read metadata", hostileFile(1<<32-1, nil)},
		{"dataset count", "implausible dataset count", hostileFile(uint32(len(meta)), manyDatasets)},
		{"attribute count", "implausible attribute count", hostileFile(uint32(len(meta)), manyAttrs)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := OpenFrom(memSource{bytes.NewReader(tc.data)})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: hostile claim grew TotalAlloc by %d bytes, want < 1 MiB", tc.name, grew)
		}
	}
}

// countingSource records the size of every ReadAt.
type countingSource struct {
	memSource
	sizes []int
}

func (c *countingSource) ReadAt(p []byte, off int64) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.memSource.ReadAt(p, off)
}

// TestMetadataReadSteps pins how OpenFrom reads the metadata block: one
// ReadAt for a block of up to 64 KiB, so an audited open keeps its
// event sequence, and doubling steps beyond that.
func TestMetadataReadSteps(t *testing.T) {
	for _, tc := range []struct {
		dims, chunk []int
		steps       func(metaLen int) []int
	}{
		// 64 chunk table entries: one read of the whole block.
		{[]int{64, 64}, []int{8, 8}, func(n int) []int { return []int{n} }},
		// 20000 entries (~160 KB): 64 KiB, then the buffer doubles twice.
		{[]int{1, 20000}, []int{1, 1}, func(n int) []int { return []int{64 << 10, 64 << 10, n - 128<<10} }},
	} {
		space := array.MustSpace(tc.dims...)
		path := writeTestFile(t, "d", space, array.Int32, tc.chunk, linValue(space))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := &countingSource{memSource: memSource{bytes.NewReader(raw)}}
		f, err := OpenFrom(src)
		if err != nil {
			t.Fatal(err)
		}
		metaLen := int(binary.LittleEndian.Uint32(raw[8:]))
		want := append([]int{headerSize}, tc.steps(metaLen)...)
		if fmt.Sprint(src.sizes) != fmt.Sprint(want) {
			t.Fatalf("%v: reads %v, want %v (metadata %d bytes)", tc.dims, src.sizes, want, metaLen)
		}
		ds, err := f.Dataset("d")
		if err != nil {
			t.Fatal(err)
		}
		last := make(array.Index, len(tc.dims))
		for k, d := range tc.dims {
			last[k] = d - 1
		}
		if v, err := ds.ReadElement(last); err != nil || v != float64(space.Size()-1) {
			t.Fatalf("%v: last element = %v, %v", tc.dims, v, err)
		}
	}
}
