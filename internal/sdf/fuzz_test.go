package sdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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
// one element of every dataset, walks the index runs of all the file's
// bytes, and reads a corner hyperslab of at most cornerElems elements:
// none of them may panic. The slab read must agree with reading its
// elements one at a time: when it succeeds every element reads the same
// value, and when it fails at least one element fails. Every read that
// succeeds must have read only bytes of the dataset's data region, and
// every element with a file offset must resolve back from it through
// IndexRuns.
func openAndRead(t *testing.T, data []byte) {
	src := &recordingSource{memSource: memSource{bytes.NewReader(data)}}
	f, err := OpenFrom(src)
	if err != nil {
		return
	}
	for _, name := range f.Names() {
		ds, err := f.Dataset(name)
		if err != nil {
			continue
		}
		// inRegion checks the reads since the last call, when err says
		// the read they served succeeded.
		lo, hi := ds.meta.DataOff, ds.meta.DataOff+ds.meta.DataLen
		src.reads = src.reads[:0]
		inRegion := func(what string, err error) {
			t.Helper()
			for _, r := range src.reads {
				if err == nil && (r.off < lo || r.off+int64(r.n) > hi) {
					t.Fatalf("%q: %s read [%d, %d), outside the data region [%d, %d)",
						name, what, r.off, r.off+int64(r.n), lo, hi)
				}
			}
			src.reads = src.reads[:0]
		}
		_, err = ds.ReadElement(make(array.Index, ds.Space().Rank()))
		inRegion("ReadElement", err)
		ds.IndexRuns(0, int64(len(data)), func(int64, int64) {})

		space := ds.Space()
		count, left := make([]int, space.Rank()), cornerElems
		for k := space.Rank() - 1; k >= 0; k-- {
			count[k] = min(space.Dim(k), left)
			left /= count[k]
		}
		sel := Slab(make([]int, space.Rank()), count)
		vals, slabErr := ds.ReadHyperslab(sel)
		inRegion("ReadHyperslab", slabErr)
		i, failed := 0, false
		sel.Each(func(ix array.Index) bool {
			v, err := ds.ReadElement(ix)
			inRegion("ReadElement", err)
			switch {
			case err != nil:
				failed = true
			case slabErr == nil && math.Float64bits(v) != math.Float64bits(vals[i]):
				t.Fatalf("%q: slab read %v at %v, element read %v", name, vals[i], ix, v)
			}
			// The first byte of a stored element resolves back to it.
			if off, err := ds.FileOffset(ix); err == nil {
				lin, _ := space.Linear(ix)
				found := false
				ds.IndexRuns(off, off+1, func(first, last int64) { found = found || (first <= lin && lin <= last) })
				if !found {
					t.Fatalf("%q: byte %d of element %v resolves to no run holding it", name, off, ix)
				}
			}
			i++
			return true
		})
		if slabErr == nil && failed {
			t.Fatalf("%q: slab %v read, but an element of it failed", name, count)
		}
		if slabErr != nil && !failed {
			t.Fatalf("%q: slab %v failed (%v), but every element read", name, count, slabErr)
		}
	}
}

// cornerElems bounds the corner hyperslab openAndRead reads.
const cornerElems = 4096

// FuzzOpen feeds arbitrary bytes to OpenFrom: once as given, and once
// with the header's metadata checksum recomputed, so that mutations
// reach the metadata decoder instead of stopping at the checksum. The
// seed corpus under testdata/fuzz/FuzzOpen holds a contiguous, a
// chunked, a debloated chunked and a packed file, and the files of
// hostileStorageFiles.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		openAndRead(t, data)
		if len(data) < headerSize {
			return
		}
		metaLen := int64(binary.LittleEndian.Uint32(data[8:]))
		if metaLen > int64(len(data)-headerSize) {
			return
		}
		fixed := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(fixed[12:], metaCRC(fixed[headerSize:headerSize+metaLen]))
		openAndRead(t, fixed)
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
		src := &recordingSource{memSource: memSource{bytes.NewReader(raw)}}
		f, err := OpenFrom(src)
		if err != nil {
			t.Fatal(err)
		}
		metaLen := int(binary.LittleEndian.Uint32(raw[8:]))
		want := append([]int{headerSize}, tc.steps(metaLen)...)
		var sizes []int
		for _, r := range src.reads {
			sizes = append(sizes, r.n)
		}
		if fmt.Sprint(sizes) != fmt.Sprint(want) {
			t.Fatalf("%v: reads %v, want %v (metadata %d bytes)", tc.dims, sizes, want, metaLen)
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

// datasetFile encodes a one-dataset file image: m's metadata, then
// data as its data region, aligned as the writer aligns it. place,
// when set, fills in m's offsets once the region's offset is in
// m.DataOff.
func datasetFile(t *testing.T, m *datasetMeta, data []byte, place func(m *datasetMeta)) []byte {
	t.Helper()
	meta, err := encodeMeta([]*datasetMeta{m})
	if err != nil {
		t.Fatal(err)
	}
	m.DataOff = align8(int64(headerSize + len(meta)))
	if place != nil {
		place(m)
	}
	if meta, err = encodeMeta([]*datasetMeta{m}); err != nil {
		t.Fatal(err)
	}
	b := hostileFile(uint32(len(meta)), meta)
	b = append(b, make([]byte, m.DataOff-int64(len(b)))...)
	return append(b, data...)
}

// hostileStorageFiles are files whose metadata misplaces their data: a
// contiguous dataset with too few data bytes, a chunk and a packed run
// stored past the region, dims whose element count wraps int64, and
// packed runs stored out of file order, which IndexRuns' search by
// offset cannot follow.
func hostileStorageFiles(t *testing.T) map[string][]byte {
	f64 := array.Float64
	return map[string][]byte{
		"short-contiguous": datasetFile(t, &datasetMeta{
			Name: "d", DType: f64, Layout: layoutContiguous, Dims: []int{4}, DataLen: 16,
		}, make([]byte, 48), nil),
		"chunk-past-region": datasetFile(t, &datasetMeta{
			Name: "d", DType: f64, Layout: layoutChunked, Dims: []int{4, 4}, Chunk: []int{2, 2},
			DataLen: 96, Debloated: true, ChunkTable: make([]int64, 4),
		}, make([]byte, 160), func(m *datasetMeta) {
			for i := range m.ChunkTable {
				m.ChunkTable[i] = m.DataOff + 32*int64(i)
			}
		}),
		"packed-run-past-region": datasetFile(t, &datasetMeta{
			Name: "d", DType: f64, Layout: layoutPacked, Dims: []int{8}, DataLen: 16,
			Debloated: true, PackRuns: []packRun{{startLin: 0, count: 2}, {startLin: 4, count: 2}},
		}, make([]byte, 48), func(m *datasetMeta) {
			m.PackRuns[0].off = m.DataOff
			m.PackRuns[1].off = m.DataOff + 16
		}),
		"wrapped-dims": datasetFile(t, &datasetMeta{
			Name: "d", DType: f64, Layout: layoutContiguous, Dims: []int{4294967297, 4294967295}, DataLen: 0,
		}, nil, nil),
		"packed-runs-out-of-order": datasetFile(t, &datasetMeta{
			Name: "d", DType: f64, Layout: layoutPacked, Dims: []int{8}, DataLen: 32,
			Debloated: true, PackRuns: []packRun{{startLin: 0, count: 2}, {startLin: 4, count: 2}},
		}, make([]byte, 32), func(m *datasetMeta) {
			m.PackRuns[0].off = m.DataOff + 16
			m.PackRuns[1].off = m.DataOff
		}),
	}
}

// TestOpenRejectsMisplacedStorage: a dataset whose storage does not
// fit its data region, in the order IndexRuns searches it, fails at
// open, before a read could return bytes of the metadata or of another
// dataset as its values, or an audited byte could resolve to no index.
func TestOpenRejectsMisplacedStorage(t *testing.T) {
	for name, data := range hostileStorageFiles(t) {
		f, err := OpenFrom(memSource{bytes.NewReader(data)})
		if err == nil {
			ds, _ := f.Dataset("d")
			last := make(array.Index, ds.Space().Rank())
			for k := range last {
				last[k] = ds.Space().Dim(k) - 1
			}
			v, rerr := ds.ReadElement(last)
			t.Errorf("%s: opened; last element reads %v, %v", name, v, rerr)
		}
	}
}
