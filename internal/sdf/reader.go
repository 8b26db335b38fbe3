package sdf

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"repro/internal/array"
)

// ByteSource is the random-access handle an sdf File reads through.
// Kondo's audit layer (internal/trace) interposes on this interface
// the way the paper's ptrace-based Sciunit interposes on read/lseek
// system calls: every ReadAt turns into a recorded I/O event.
type ByteSource interface {
	io.ReaderAt
	io.Closer
}

// File is an open sdf file.
type File struct {
	src    ByteSource
	byName map[string]*Dataset
	names  []string
}

// Open opens the sdf file at path through the operating system
// directly (untraced).
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sdf: open %s: %w", path, err)
	}
	file, err := OpenFrom(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sdf: %s: %w", path, err)
	}
	return file, nil
}

// OpenFrom opens an sdf file through an arbitrary ByteSource, e.g. a
// traced handle. On error the source is not closed; the caller owns it
// until OpenFrom succeeds.
func OpenFrom(src ByteSource) (*File, error) {
	header := make([]byte, headerSize)
	if _, err := src.ReadAt(header, 0); err != nil {
		return nil, fmt.Errorf("sdf: read header: %w", err)
	}
	if string(header[:4]) != Magic {
		return nil, fmt.Errorf("sdf: bad magic %q", header[:4])
	}
	if v := binary.LittleEndian.Uint16(header[4:]); v != Version {
		return nil, fmt.Errorf("sdf: unsupported version %d", v)
	}
	metaLen := binary.LittleEndian.Uint32(header[8:])
	wantCRC := binary.LittleEndian.Uint32(header[12:])
	metaBytes, err := readMeta(src, int(metaLen))
	if err != nil {
		return nil, fmt.Errorf("sdf: read metadata: %w", err)
	}
	if got := metaCRC(metaBytes); got != wantCRC {
		return nil, fmt.Errorf("sdf: metadata checksum mismatch (got %08x, want %08x)", got, wantCRC)
	}
	metas, err := decodeMeta(metaBytes)
	if err != nil {
		return nil, err
	}
	file := &File{src: src, byName: make(map[string]*Dataset, len(metas))}
	for _, m := range metas {
		ds, err := newDataset(file, m)
		if err != nil {
			return nil, err
		}
		file.byName[m.Name] = ds
		file.names = append(file.names, m.Name)
	}
	sort.Strings(file.names)
	return file, nil
}

// readAhead is the most bytes readGrowing reads with its first ReadAt
// into a buffer that cannot yet hold them.
const readAhead = 64 << 10

// readMeta reads the n-byte metadata block that follows the header: a
// block of up to 64 KiB with one ReadAt, and a larger one in doubling
// steps.
func readMeta(src io.ReaderAt, n int) ([]byte, error) {
	return readGrowing(src, nil, headerSize, n)
}

// readGrowing reads the n bytes at off into buf's backing array, which
// it grows only as reads succeed: the first ReadAt fills what buf
// already holds or readAhead bytes, whichever is more, and each later
// one doubles what has been read. So a length claimed beyond the end of
// src fails having allocated about what src holds, and a buffer reused
// for reads of one size reads each with one ReadAt. It returns the
// buffer, for reuse, with or without the error.
func readGrowing(src io.ReaderAt, buf []byte, off int64, n int) ([]byte, error) {
	first := min(n, max(cap(buf), readAhead))
	buf = slices.Grow(buf[:0], first)[:first]
	for filled := 0; ; {
		if _, err := src.ReadAt(buf[filled:], off+int64(filled)); err != nil {
			return buf, err
		}
		filled = len(buf)
		if filled == n {
			return buf, nil
		}
		buf = slices.Grow(buf, min(filled, n-filled))
		buf = buf[:min(2*filled, n)]
	}
}

// Names returns the dataset names in the file, sorted.
func (f *File) Names() []string {
	return append([]string(nil), f.names...)
}

// Dataset returns the named dataset or ErrNotFound.
func (f *File) Dataset(name string) (*Dataset, error) {
	ds, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ds, nil
}

// Close closes the underlying source.
func (f *File) Close() error { return f.src.Close() }

// Dataset is one named array within an open file.
type Dataset struct {
	file    *File
	meta    *datasetMeta
	space   array.Space
	layout  array.Layout
	chunked *array.ChunkedLayout // nil for contiguous
	elem    int64
	// stored lists present chunks in ascending file-offset order for
	// IndexRuns' binary search.
	stored []storedChunk
	// packed indexes the run table of a packed dataset.
	packed *packedIndex
}

type storedChunk struct {
	base int64
	lin  int64
}

func newDataset(f *File, m *datasetMeta) (*Dataset, error) {
	space, err := m.space()
	if err != nil {
		return nil, fmt.Errorf("sdf: dataset %q: %w", m.Name, err)
	}
	ds := &Dataset{file: f, meta: m, space: space, elem: int64(m.DType.Size())}
	// Every stored byte must lie in the data region [DataOff, end).
	if m.DataOff < 0 || m.DataLen < 0 || m.DataLen > math.MaxInt64-m.DataOff {
		return nil, fmt.Errorf("sdf: dataset %q: invalid data region at %d of %d bytes", m.Name, m.DataOff, m.DataLen)
	}
	end := m.DataOff + m.DataLen
	inRegion := func(off, n int64) bool { return off >= m.DataOff && n <= end-off }
	switch m.Layout {
	case layoutContiguous:
		if space.Size() > math.MaxInt64/ds.elem || m.DataLen != space.Size()*ds.elem {
			return nil, fmt.Errorf("sdf: dataset %q: %d data bytes for %d elements of %d bytes",
				m.Name, m.DataLen, space.Size(), ds.elem)
		}
		ds.layout = array.NewContiguousLayout(space, m.DType)
	case layoutChunked:
		cl, err := array.NewChunkedLayout(space, m.DType, m.Chunk)
		if err != nil {
			return nil, fmt.Errorf("sdf: dataset %q: %w", m.Name, err)
		}
		if int64(len(m.ChunkTable)) != cl.NumChunks() {
			return nil, fmt.Errorf("sdf: dataset %q: chunk table has %d entries, want %d",
				m.Name, len(m.ChunkTable), cl.NumChunks())
		}
		ds.layout = cl
		ds.chunked = cl
		ds.stored = make([]storedChunk, 0, len(m.ChunkTable))
		// The writer lays chunks out in table order, so the table
		// ascends in file offset unless it was built by hand.
		ascending := true
		for lin, base := range m.ChunkTable {
			if base == missingChunk {
				continue
			}
			if !inRegion(base, cl.ChunkSizeBytes()) {
				return nil, fmt.Errorf("sdf: dataset %q: chunk %d outside the data region", m.Name, lin)
			}
			if n := len(ds.stored); n > 0 && base < ds.stored[n-1].base {
				ascending = false
			}
			ds.stored = append(ds.stored, storedChunk{base: base, lin: int64(lin)})
		}
		if !ascending {
			sort.Slice(ds.stored, func(i, j int) bool { return ds.stored[i].base < ds.stored[j].base })
		}
	case layoutPacked:
		ds.layout = array.NewContiguousLayout(space, m.DType)
		runs := append([]packRun(nil), m.PackRuns...)
		sort.Slice(runs, func(i, j int) bool { return runs[i].startLin < runs[j].startLin })
		// Non-empty runs inside the space that do not overlap end in
		// ascending order too, which the run searches rely on; IndexRuns
		// searches by file offset, so offsets must ascend in that order.
		for i, r := range runs {
			if r.startLin < 0 || r.count <= 0 || r.count > space.Size()-r.startLin {
				return nil, fmt.Errorf("sdf: dataset %q: packed run outside the dataset", m.Name)
			}
			if r.count > math.MaxInt64/ds.elem || !inRegion(r.off, r.count*ds.elem) {
				return nil, fmt.Errorf("sdf: dataset %q: packed run outside the data region", m.Name)
			}
			if i > 0 && r.startLin < runs[i-1].startLin+runs[i-1].count {
				return nil, fmt.Errorf("sdf: dataset %q: overlapping packed runs", m.Name)
			}
			if i > 0 && r.off < runs[i-1].off+runs[i-1].count*ds.elem {
				return nil, fmt.Errorf("sdf: dataset %q: packed runs out of file order", m.Name)
			}
		}
		ds.packed = &packedIndex{runs: runs, elem: ds.elem}
	default:
		return nil, fmt.Errorf("sdf: dataset %q: invalid layout", m.Name)
	}
	return ds, nil
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.meta.Name }

// Space returns the dataset's index space.
func (d *Dataset) Space() array.Space { return d.space }

// DType returns the element type.
func (d *Dataset) DType() array.DType { return d.meta.DType }

// Debloated reports whether this dataset was carved by Kondo.
func (d *Dataset) Debloated() bool { return d.meta.Debloated }

// ChunkShape returns the chunk extents, or nil for contiguous
// datasets.
func (d *Dataset) ChunkShape() []int {
	if d.chunked == nil {
		return nil
	}
	return d.chunked.ChunkShape()
}

// ChunkLayout returns the chunked layout of a chunked dataset, or nil
// for contiguous and packed datasets. The recovery data plane uses it
// to enumerate chunk coordinates for chunk-granular serving.
func (d *Dataset) ChunkLayout() *array.ChunkedLayout { return d.chunked }

// StoredBytes returns the number of data bytes this dataset occupies
// in the file. For a debloated dataset this excludes carved-away
// chunks — the quantity Fig. 9's % data reduction is computed from.
func (d *Dataset) StoredBytes() int64 { return d.meta.DataLen }

// FileOffset maps an element index to its absolute byte offset in the
// file, or ErrDataMissing if the element was carved away. The
// data-missing error formats its message only when printed, so a miss
// costs one small allocation.
func (d *Dataset) FileOffset(ix array.Index) (int64, error) {
	if d.packed != nil {
		lin, err := d.space.Linear(ix)
		if err != nil {
			return 0, err
		}
		off, ok := d.packed.fileOffset(lin)
		if !ok {
			return 0, &missingError{d, lin}
		}
		return off, nil
	}
	if d.chunked == nil {
		rel, err := d.layout.Offset(ix)
		if err != nil {
			return 0, err
		}
		return d.meta.DataOff + rel, nil
	}
	chunkLin, within, err := d.chunked.Locate(ix)
	if err != nil {
		return 0, err
	}
	base := d.meta.ChunkTable[chunkLin]
	if base == missingChunk {
		lin, _ := d.space.Linear(ix) // Locate checked the bounds
		return 0, &missingError{d, lin}
	}
	return base + within*d.elem, nil
}

// IndexRuns calls fn with the runs [first, last] of row-major linear
// positions whose element bytes the file range [lo, hi) touches, in
// ascending file order: one run for a contiguous dataset, one per
// packed run and one per chunk row the range reaches. Bytes outside
// the dataset's data, carved-away chunks and edge-chunk padding yield
// nothing; an element counts as soon as the range holds one of its
// bytes. This is the offset→index half of the bijection Kondo keeps
// between index tuples and byte offsets (paper §IV-C): the audit
// resolver turns a merged event range into index runs with it.
func (d *Dataset) IndexRuns(lo, hi int64, fn func(first, last int64)) {
	if lo >= hi {
		return
	}
	// elems returns the element positions [from, to) of a stored
	// stretch at base that the range touches.
	elems := func(base int64) (from, to int64) {
		return max(lo-base, 0) / d.elem, (hi - base + d.elem - 1) / d.elem
	}
	switch {
	case d.packed != nil:
		runs := d.packed.runs
		// Run offsets ascend with their linear positions.
		i := sort.Search(len(runs), func(i int) bool { return runs[i].off+runs[i].count*d.elem > lo })
		for ; i < len(runs) && runs[i].off < hi; i++ {
			from, to := elems(runs[i].off)
			first := max(runs[i].startLin+from, 0)
			last := min(runs[i].startLin+min(to, runs[i].count), d.space.Size()) - 1
			if first <= last {
				fn(first, last)
			}
		}
	case d.chunked != nil:
		chunkBytes := d.chunked.ChunkSizeBytes()
		i := sort.Search(len(d.stored), func(i int) bool { return d.stored[i].base+chunkBytes > lo })
		for ; i < len(d.stored) && d.stored[i].base < hi; i++ {
			from, to := elems(d.stored[i].base)
			d.chunked.ChunkRows(d.stored[i].lin, from, to, fn)
		}
	default:
		from, to := elems(d.meta.DataOff)
		if last := min(to, d.space.Size(), d.meta.DataLen/d.elem) - 1; from <= last {
			fn(from, last)
		}
	}
}

// ResolveOffset maps an absolute file offset back to the index of the
// element whose bytes hold it, through IndexRuns. `kondo explain` uses
// it to name the element behind any byte of a data file.
func (d *Dataset) ResolveOffset(abs int64) (array.Index, error) {
	lin := int64(-1)
	d.IndexRuns(abs, abs+1, func(first, _ int64) { lin = first })
	if lin < 0 {
		return nil, fmt.Errorf("sdf: offset %d holds no element of %q", abs, d.meta.Name)
	}
	return d.space.Unlinear(lin)
}

// ReadElement reads the value of one element, issuing a single
// element-sized read against the underlying source.
func (d *Dataset) ReadElement(ix array.Index) (float64, error) {
	abs, err := d.FileOffset(ix)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, d.elem)
	if _, err := d.file.src.ReadAt(buf, abs); err != nil {
		return 0, fmt.Errorf("sdf: read element %v of %q: %w", ix, d.meta.Name, err)
	}
	return decodeValue(buf, d.meta.DType), nil
}

// ReadHyperslab reads the selected elements in row-major selection
// order. It walks the selection one row (one block along the last
// dimension) at a time and maps each row to its file stretches: one
// per contiguous row, chunk or packed run the row crosses. A stretch
// that starts where the pending run ends extends it; any other stretch
// first reads the pending run with one ReadAt. Physically contiguous
// runs of selected elements are so coalesced into single reads,
// matching how HDF5 performs hyperslab I/O; each run is one I/O event
// under audit. A carved-away element fails the read with
// ErrDataMissing, leaving the pending run unread.
func (d *Dataset) ReadHyperslab(sel Hyperslab) ([]float64, error) {
	return d.ReadHyperslabInto(sel, nil)
}

// ReadHyperslabInto reads sel as ReadHyperslab does, into vals when it
// has room for the selection (as H5Dread writes into its caller's
// buffer) and into a new slice otherwise, and returns the values. A
// caller reading many slabs can so reuse one slice.
func (d *Dataset) ReadHyperslabInto(sel Hyperslab, vals []float64) ([]float64, error) {
	if err := sel.Validate(d.space); err != nil {
		return nil, err
	}
	r := slabReader{d: d}
	return r.read(sel, vals)
}

// ReadHyperslabFunc reads sel as ReadHyperslab does, except that the
// value of each carved-away element comes from missing, called once per
// such element in selection order. Present stretches still coalesce;
// the pending run is read before each call to missing. The index
// passed to missing is reused between calls; clone it if it escapes. A
// nil missing fails the read on the first carved-away element, as
// ReadHyperslab does; so does any error missing returns.
func (d *Dataset) ReadHyperslabFunc(sel Hyperslab, missing func(array.Index) (float64, error)) ([]float64, error) {
	if err := sel.Validate(d.space); err != nil {
		return nil, err
	}
	r := slabReader{d: d, missing: missing}
	return r.read(sel, nil)
}

// slabReader reads selections of one dataset row by row. Its index and
// read buffer are reused across reads, so a caller reading many slabs
// (the Merkle build) allocates them once.
type slabReader struct {
	d       *Dataset
	missing func(array.Index) (float64, error) // nil: a miss fails the read
	// sink, when set, takes each coalesced run's stored bytes, in
	// selection order, instead of their decoded values; read then
	// returns no values. It is never set together with missing.
	sink func([]byte)
	ix   array.Index
	buf  []byte    // the read buffer
	vals []float64 // the current read's values
	// The pending run: count elements stored from file offset off,
	// destined for vals[pos:].
	off, count int64
	pos        int
}

// read reads the valid selection sel into vals, which it allocates
// when vals holds fewer than the selected elements, and returns the
// values.
func (r *slabReader) read(sel Hyperslab, vals []float64) ([]float64, error) {
	n := int(sel.NumElements())
	if r.sink == nil {
		if cap(vals) < n {
			vals = make([]float64, n)
		}
		vals = vals[:n]
	}
	r.vals, r.count = vals, 0
	if len(r.ix) != len(sel.Start) {
		r.ix = make(array.Index, len(sel.Start))
	}
	width, pos := sel.Block[len(sel.Block)-1], 0
	err := sel.eachRow(r.ix, func(ix array.Index) error {
		err := r.row(ix, width, pos)
		pos += width
		return err
	})
	if err == nil {
		err = r.flush()
	}
	if err != nil {
		return nil, err
	}
	return r.vals, nil
}

// row maps the width elements of the row starting at ix, destined for
// vals[pos:], to their file stretches.
func (r *slabReader) row(ix array.Index, width, pos int) error {
	d := r.d
	last := len(ix) - 1
	switch {
	case d.chunked != nil:
		// One stretch per chunk the row crosses.
		cw := d.meta.Chunk[last]
		for c, end := ix[last], ix[last]+width; c < end; {
			n := min(end, c-c%cw+cw) - c
			ix[last] = c
			chunk, within, _ := d.chunked.Locate(ix) // ix lies in the space
			var err error
			if base := d.meta.ChunkTable[chunk]; base != missingChunk {
				err = r.stretch(base+within*d.elem, int64(n), pos)
			} else {
				err = r.miss(ix, n, pos)
			}
			if err != nil {
				return err
			}
			c += n
			pos += n
		}
		return nil
	case d.packed != nil:
		// One stretch per packed run the row's linear positions reach,
		// and a miss for each gap between runs.
		c0 := ix[last]
		lin, _ := d.space.Linear(ix)
		runs := d.packed.runs
		p, end := lin, lin+int64(width)
		i := sort.Search(len(runs), func(i int) bool { return runs[i].startLin+runs[i].count > p })
		for p < end {
			var next int64
			var err error
			if i < len(runs) && runs[i].startLin <= p {
				next = min(end, runs[i].startLin+runs[i].count)
				err = r.stretch(runs[i].off+(p-runs[i].startLin)*d.elem, next-p, pos)
				i++
			} else {
				next = end
				if i < len(runs) {
					next = min(end, runs[i].startLin)
				}
				ix[last] = c0 + int(p-lin)
				err = r.miss(ix, int(next-p), pos)
			}
			if err != nil {
				return err
			}
			pos += int(next - p)
			p = next
		}
		return nil
	default:
		lin, _ := d.space.Linear(ix)
		return r.stretch(d.meta.DataOff+lin*d.elem, int64(width), pos)
	}
}

// stretch adds count elements stored from file offset off, destined for
// vals[pos:], to the read: it extends the pending run when it starts
// where that run ends, and otherwise reads the pending run and starts a
// new one.
func (r *slabReader) stretch(off, count int64, pos int) error {
	if r.count > 0 && off == r.off+r.count*r.d.elem {
		r.count += count
		return nil
	}
	if err := r.flush(); err != nil {
		return err
	}
	r.off, r.count, r.pos = off, count, pos
	return nil
}

// miss handles n carved-away elements of a row, from ix on, destined
// for vals[pos:]. Without a missing function the read fails with the
// first one's error and the pending run is dropped unread; with one,
// the pending run is read first and missing supplies each value in
// turn.
func (r *slabReader) miss(ix array.Index, n, pos int) error {
	if r.missing == nil {
		lin, _ := r.d.space.Linear(ix)
		return &missingError{r.d, lin}
	}
	if err := r.flush(); err != nil {
		return err
	}
	last := len(ix) - 1
	for j := range n {
		v, err := r.missing(ix)
		if err != nil {
			return err
		}
		r.vals[pos+j] = v
		ix[last]++
	}
	return nil
}

// flush reads the pending run with one ReadAt into the reused buffer
// and decodes it into place, or hands its bytes to the sink.
func (r *slabReader) flush() error {
	if r.count == 0 {
		return nil
	}
	size := int(r.count * r.d.elem)
	if cap(r.buf) < size {
		r.buf = make([]byte, size)
	}
	buf := r.buf[:size]
	if _, err := r.d.file.src.ReadAt(buf, r.off); err != nil {
		return fmt.Errorf("sdf: hyperslab read of %q: %w", r.d.meta.Name, err)
	}
	if r.sink != nil {
		r.sink(buf)
	} else {
		decodeValues(r.vals[r.pos:r.pos+int(r.count)], buf, r.d.meta.DType)
	}
	r.count = 0
	return nil
}
