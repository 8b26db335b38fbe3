package sdf

import (
	"encoding/binary"
	"fmt"
	"io"
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

// metaReadAhead is the largest metadata block OpenFrom reads with one
// ReadAt. A larger claimed length is read in doubling steps, so a
// header claiming more bytes than the file holds fails having
// allocated about what the file does hold.
const metaReadAhead = 64 << 10

// readMeta reads the n-byte metadata block that follows the header.
func readMeta(src io.ReaderAt, n int) ([]byte, error) {
	buf := make([]byte, min(n, metaReadAhead))
	for filled := 0; ; {
		if _, err := src.ReadAt(buf[filled:], headerSize+int64(filled)); err != nil {
			return nil, err
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
	// binary-searched offset→index resolution.
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
	switch m.Layout {
	case layoutContiguous:
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
		for lin, base := range m.ChunkTable {
			if base != missingChunk {
				ds.stored = append(ds.stored, storedChunk{base: base, lin: int64(lin)})
			}
		}
		sort.Slice(ds.stored, func(i, j int) bool { return ds.stored[i].base < ds.stored[j].base })
	case layoutPacked:
		ds.layout = array.NewContiguousLayout(space, m.DType)
		runs := append([]packRun(nil), m.PackRuns...)
		sort.Slice(runs, func(i, j int) bool { return runs[i].startLin < runs[j].startLin })
		for i := 1; i < len(runs); i++ {
			if runs[i].startLin < runs[i-1].startLin+runs[i-1].count {
				return nil, fmt.Errorf("sdf: dataset %q: overlapping packed runs", m.Name)
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

// LogicalBytes returns the size the dataset would occupy fully
// materialized (including edge-chunk padding for chunked layouts).
func (d *Dataset) LogicalBytes() int64 { return d.layout.DataSize() }

// Region is a contiguous stretch of element data in the file.
type Region struct {
	Off int64 // absolute file offset of the region start
	Len int64 // region length in bytes
}

// DataRegions returns the file regions holding this dataset's element
// data in ascending offset order: one region for a contiguous dataset,
// one per stored chunk for a chunked dataset. Every element offset is
// elem-aligned relative to its region start, which is what the audit
// resolver needs to step ranges back to indices.
func (d *Dataset) DataRegions() []Region {
	if d.packed != nil {
		return d.packed.regions()
	}
	if d.chunked == nil {
		return []Region{{Off: d.meta.DataOff, Len: d.meta.DataLen}}
	}
	chunkBytes := d.chunked.ChunkSizeBytes()
	out := make([]Region, len(d.stored))
	for i, sc := range d.stored {
		out[i] = Region{Off: sc.base, Len: chunkBytes}
	}
	return out
}

// FileOffset maps an element index to its absolute byte offset in the
// file, or ErrDataMissing if the containing chunk was carved away.
func (d *Dataset) FileOffset(ix array.Index) (int64, error) {
	if d.packed != nil {
		lin, err := d.space.Linear(ix)
		if err != nil {
			return 0, err
		}
		off, err := d.packed.fileOffset(lin)
		if err != nil {
			return 0, fmt.Errorf("%w (index %v of %q)", err, ix, d.meta.Name)
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
		return 0, fmt.Errorf("%w: index %v of %q", ErrDataMissing, ix, d.meta.Name)
	}
	return base + within*d.elem, nil
}

// ResolveOffset is the inverse of FileOffset: it maps an absolute file
// offset back to the element index stored there. The audit pipeline
// uses it to translate system-call byte offsets into index tuples
// (paper §IV-C).
func (d *Dataset) ResolveOffset(abs int64) (array.Index, error) {
	if d.packed != nil {
		lin, err := d.packed.linAt(abs)
		if err != nil {
			return nil, err
		}
		return d.space.Unlinear(lin)
	}
	if d.chunked == nil {
		rel := abs - d.meta.DataOff
		if rel < 0 || rel >= d.meta.DataLen {
			return nil, fmt.Errorf("sdf: offset %d outside data region of %q", abs, d.meta.Name)
		}
		return d.layout.IndexAt(rel)
	}
	chunkBytes := d.chunked.ChunkSizeBytes()
	// Present chunks are laid out in ascending file order by the
	// writer, so the stored-chunk index is binary searchable.
	i := sort.Search(len(d.stored), func(i int) bool {
		return d.stored[i].base+chunkBytes > abs
	})
	if i >= len(d.stored) || abs < d.stored[i].base {
		return nil, fmt.Errorf("sdf: offset %d not within any stored chunk of %q", abs, d.meta.Name)
	}
	base, chunkLin := d.stored[i].base, d.stored[i].lin
	rel := abs - base
	if rel%d.elem != 0 {
		return nil, fmt.Errorf("sdf: offset %d not element-aligned in %q", abs, d.meta.Name)
	}
	withinLin := rel / d.elem
	chunkIx, err := d.chunked.Grid().Unlinear(chunkLin)
	if err != nil {
		return nil, err
	}
	shape := d.chunked.ChunkShape()
	ix := make(array.Index, len(shape))
	for k := len(shape) - 1; k >= 0; k-- {
		c := int64(shape[k])
		ix[k] = chunkIx[k]*shape[k] + int(withinLin%c)
		withinLin /= c
	}
	if !d.space.Contains(ix) {
		return nil, fmt.Errorf("sdf: offset %d falls in edge-chunk padding of %q", abs, d.meta.Name)
	}
	return ix, nil
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
// order. Physically contiguous runs of selected elements are coalesced
// into single reads, matching how HDF5 performs hyperslab I/O; each
// run is one I/O event under audit.
func (d *Dataset) ReadHyperslab(sel Hyperslab) ([]float64, error) {
	if err := sel.Validate(d.space); err != nil {
		return nil, err
	}
	n := sel.NumElements()
	out := make([]float64, 0, n)

	type run struct {
		off   int64
		count int64
	}
	var cur run
	var missErr error
	flush := func() error {
		if cur.count == 0 {
			return nil
		}
		buf := make([]byte, cur.count*d.elem)
		if _, err := d.file.src.ReadAt(buf, cur.off); err != nil {
			return fmt.Errorf("sdf: hyperslab read of %q: %w", d.meta.Name, err)
		}
		for i := int64(0); i < cur.count; i++ {
			out = append(out, decodeValue(buf[i*d.elem:], d.meta.DType))
		}
		cur = run{}
		return nil
	}

	var readErr error
	sel.Each(func(ix array.Index) bool {
		abs, err := d.FileOffset(ix)
		if err != nil {
			missErr = err
			return false
		}
		if cur.count > 0 && abs == cur.off+cur.count*d.elem {
			cur.count++
			return true
		}
		if err := flush(); err != nil {
			readErr = err
			return false
		}
		cur = run{off: abs, count: 1}
		return true
	})
	if missErr != nil {
		return nil, missErr
	}
	if readErr != nil {
		return nil, readErr
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}
