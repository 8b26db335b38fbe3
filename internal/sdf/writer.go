package sdf

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"repro/internal/array"
	"repro/internal/atomicfile"
)

// Writer builds an sdf file. Datasets are staged in memory and the
// whole file is laid out and flushed on Close; benchmark files in this
// reproduction top out at 64 MB (paper §V-B), which comfortably fits.
type Writer struct {
	path     string
	datasets []*stagedDataset
	byName   map[string]*stagedDataset
	closed   bool
}

// stagedDataset is a dataset being assembled in memory.
type stagedDataset struct {
	meta  datasetMeta
	space array.Space
	elem  int64
	// data is the whole data region of a contiguous (or packed)
	// dataset.
	data []byte
	// chunked is the layout of a chunked dataset, nil otherwise.
	chunked *array.ChunkedLayout
	// chunks stages a chunked dataset one chunk at a time: chunks[i]
	// holds chunk i's padded bytes, allocated on its first write. A
	// present chunk that was never written is stored as zeros.
	chunks [][]byte
	// present, for debloated chunked datasets, marks which chunks
	// will be written. Nil means all chunks present.
	present []bool
	// packedRuns, for packed (element-granular debloated) datasets,
	// lists the kept element runs.
	packedRuns []packRun
}

// NewWriter returns a Writer that will create the file at path on
// Close.
func NewWriter(path string) *Writer {
	return &Writer{path: path, byName: make(map[string]*stagedDataset)}
}

// DatasetWriter populates one staged dataset, by element, by dense
// slab or all at once.
type DatasetWriter struct {
	w  *Writer
	sd *stagedDataset
}

// CreateDataset stages a new dataset. A nil or empty chunk shape
// selects a contiguous layout; otherwise the dataset is chunked with
// the given chunk extents.
func (w *Writer) CreateDataset(name string, space array.Space, dt array.DType, chunk []int) (*DatasetWriter, error) {
	if w.closed {
		return nil, fmt.Errorf("sdf: writer for %s already closed", w.path)
	}
	if name == "" {
		return nil, fmt.Errorf("sdf: empty dataset name")
	}
	if _, dup := w.byName[name]; dup {
		return nil, fmt.Errorf("sdf: duplicate dataset %q", name)
	}
	if !dt.Valid() {
		return nil, fmt.Errorf("sdf: invalid dtype for dataset %q", name)
	}
	sd := &stagedDataset{
		meta: datasetMeta{
			Name:  name,
			DType: dt,
			Dims:  space.Dims(),
		},
		space: space,
		elem:  int64(dt.Size()),
	}
	if len(chunk) == 0 {
		sd.meta.Layout = layoutContiguous
		sd.data = make([]byte, space.Size()*sd.elem)
	} else {
		cl, err := array.NewChunkedLayout(space, dt, chunk)
		if err != nil {
			return nil, err
		}
		sd.meta.Layout = layoutChunked
		sd.meta.Chunk = cl.ChunkShape()
		sd.chunked = cl
		sd.chunks = make([][]byte, cl.NumChunks())
	}
	w.datasets = append(w.datasets, sd)
	w.byName[name] = sd
	return &DatasetWriter{w: w, sd: sd}, nil
}

// Set writes the value of one element.
func (dw *DatasetWriter) Set(ix array.Index, v float64) error {
	dst, _, err := dw.sd.span(ix, 1)
	if err != nil {
		return err
	}
	encodeValue(dst, dw.sd.meta.DType, v)
	return nil
}

// SetSlab writes the dense block of shape count at start from vals, in
// row-major order, one row at a time.
func (dw *DatasetWriter) SetSlab(start, count []int, vals []float64) error {
	sel := Slab(start, count)
	if err := sel.Validate(dw.sd.space); err != nil {
		return err
	}
	if n := sel.NumElements(); int64(len(vals)) != n {
		return fmt.Errorf("sdf: %d values for a %d-element slab of %q", len(vals), n, dw.sd.meta.Name)
	}
	width := count[len(count)-1]
	return sel.eachRow(make(array.Index, len(start)), func(ix array.Index) error {
		err := dw.sd.putRow(ix, vals[:width])
		vals = vals[width:]
		return err
	})
}

// Fill populates every element from fn(ix), calling fn in row-major
// order and storing one row at a time. The index passed to fn is
// reused; clone it if it escapes.
func (dw *DatasetWriter) Fill(fn func(array.Index) float64) error {
	dims := dw.sd.space.Dims()
	last := len(dims) - 1
	row := make([]float64, dims[last])
	return Slab(make([]int, len(dims)), dims).eachRow(make(array.Index, len(dims)), func(ix array.Index) error {
		for c := range row {
			ix[last] = c
			row[c] = fn(ix)
		}
		ix[last] = 0
		return dw.sd.putRow(ix, row)
	})
}

// putRow stores vals in the row that starts at ix and runs along the
// last dimension; vals must fit in the row. It moves ix[last] along
// the row.
func (sd *stagedDataset) putRow(ix array.Index, vals []float64) error {
	for len(vals) > 0 {
		dst, n, err := sd.span(ix, len(vals))
		if err != nil {
			return err
		}
		encodeValues(dst, sd.meta.DType, vals[:n])
		vals = vals[n:]
		ix[len(ix)-1] += n
	}
	return nil
}

// span returns the staged bytes of the first n elements of ix's row
// from ix on that one stretch of storage holds: all n for a contiguous
// dataset, those in ix's chunk for a chunked one, allocating the chunk
// on its first write. It also returns how many elements the bytes hold.
func (sd *stagedDataset) span(ix array.Index, n int) ([]byte, int, error) {
	if sd.chunked == nil {
		lin, err := sd.space.Linear(ix)
		if err != nil {
			return nil, 0, err
		}
		return sd.data[lin*sd.elem : (lin+int64(n))*sd.elem], n, nil
	}
	chunk, within, err := sd.chunked.Locate(ix)
	if err != nil {
		return nil, 0, err
	}
	cw := sd.meta.Chunk[len(ix)-1]
	n = min(n, cw-ix[len(ix)-1]%cw)
	buf := sd.chunks[chunk]
	if buf == nil {
		buf = make([]byte, sd.chunked.ChunkSizeBytes())
		sd.chunks[chunk] = buf
	}
	return buf[within*sd.elem : (within+int64(n))*sd.elem], n, nil
}

// OmitChunksExcept marks the dataset as debloated and keeps only the
// chunks whose linear ids appear in keep. It is only valid for chunked
// datasets; the debloat package uses it to materialize D_Θ.
func (dw *DatasetWriter) OmitChunksExcept(keep map[int64]bool) error {
	sd := dw.sd
	if sd.meta.Layout != layoutChunked {
		return fmt.Errorf("sdf: OmitChunksExcept on contiguous dataset %q", sd.meta.Name)
	}
	n := sd.chunked.NumChunks()
	sd.present = make([]bool, n)
	for lin := range keep {
		if lin < 0 || lin >= n {
			return fmt.Errorf("sdf: chunk id %d out of range [0,%d)", lin, n)
		}
		sd.present[lin] = true
	}
	sd.meta.Debloated = true
	return nil
}

// Close lays out all staged datasets, writes the file, and
// invalidates the writer.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("sdf: writer for %s closed twice", w.path)
	}
	w.closed = true

	// Deterministic dataset order for byte-stable output.
	sort.SliceStable(w.datasets, func(i, j int) bool {
		return w.datasets[i].meta.Name < w.datasets[j].meta.Name
	})

	// First pass: compute per-dataset stored sizes and chunk tables
	// against a provisional base of zero; metadata length depends on
	// chunk table sizes, not offsets, so sizes are stable.
	metas := make([]*datasetMeta, len(w.datasets))
	for i, sd := range w.datasets {
		sd.buildChunkTable(0)
		metas[i] = &sd.meta
	}
	metaBytes, err := encodeMeta(metas)
	if err != nil {
		return err
	}
	dataBase := align8(int64(headerSize + len(metaBytes)))

	// Second pass: assign real offsets now that the metadata length is
	// known, then re-encode.
	off := dataBase
	for _, sd := range w.datasets {
		sd.buildChunkTable(off)
		off = align8(off + sd.meta.DataLen)
	}
	metaBytes, err = encodeMeta(metas)
	if err != nil {
		return err
	}
	if int64(headerSize+len(metaBytes)) > dataBase {
		// Unreachable: re-encoding with different offsets cannot grow
		// the block because all integer fields are fixed-width.
		return fmt.Errorf("sdf: metadata grew between layout passes")
	}

	// The file replaces any previous one at the path all at once, so a
	// failed write never leaves a torn file where a good one was.
	return atomicfile.Write(w.path, 0o666, func(f *os.File) error {
		header := make([]byte, headerSize)
		copy(header, Magic)
		binary.LittleEndian.PutUint16(header[4:], Version)
		binary.LittleEndian.PutUint32(header[8:], uint32(len(metaBytes)))
		binary.LittleEndian.PutUint32(header[12:], metaCRC(metaBytes))
		if _, err := f.Write(header); err != nil {
			return fmt.Errorf("sdf: write header: %w", err)
		}
		if _, err := f.Write(metaBytes); err != nil {
			return fmt.Errorf("sdf: write metadata: %w", err)
		}
		for _, sd := range w.datasets {
			if _, err := f.Seek(sd.meta.DataOff, 0); err != nil {
				return fmt.Errorf("sdf: seek to data region: %w", err)
			}
			if err := sd.writeData(f); err != nil {
				return err
			}
		}
		return nil
	})
}

// buildChunkTable fills in DataOff, DataLen and, for chunked layouts,
// the chunk table, given the dataset's data region starting at base.
func (sd *stagedDataset) buildChunkTable(base int64) {
	sd.meta.DataOff = base
	if sd.meta.Layout == layoutContiguous {
		sd.meta.DataLen = int64(len(sd.data))
		return
	}
	if sd.meta.Layout == layoutPacked {
		off := base
		runs := make([]packRun, len(sd.packedRuns))
		for i, r := range sd.packedRuns {
			r.off = off
			runs[i] = r
			off += r.count * sd.elem
		}
		sd.meta.PackRuns = runs
		sd.meta.DataLen = off - base
		return
	}
	n := sd.chunked.NumChunks()
	chunkBytes := sd.chunked.ChunkSizeBytes()
	table := make([]int64, n)
	off := base
	for i := int64(0); i < n; i++ {
		if sd.present != nil && !sd.present[i] {
			table[i] = missingChunk
			continue
		}
		table[i] = off
		off += chunkBytes
	}
	sd.meta.ChunkTable = table
	sd.meta.DataLen = off - base
}

// writeData emits the dataset's stored bytes at the current file
// position (which Close has already seeked to DataOff).
func (sd *stagedDataset) writeData(f *os.File) error {
	if sd.meta.Layout == layoutContiguous {
		if _, err := f.Write(sd.data); err != nil {
			return fmt.Errorf("sdf: write data for %q: %w", sd.meta.Name, err)
		}
		return nil
	}
	if sd.meta.Layout == layoutPacked {
		for _, r := range sd.meta.PackRuns {
			src := sd.data[r.startLin*sd.elem : (r.startLin+r.count)*sd.elem]
			if _, err := f.WriteAt(src, r.off); err != nil {
				return fmt.Errorf("sdf: write packed run of %q: %w", sd.meta.Name, err)
			}
		}
		return nil
	}
	var zeros []byte
	for i, off := range sd.meta.ChunkTable {
		if off == missingChunk {
			continue
		}
		src := sd.chunks[i]
		if src == nil {
			if zeros == nil {
				zeros = make([]byte, sd.chunked.ChunkSizeBytes())
			}
			src = zeros
		}
		if _, err := f.WriteAt(src, off); err != nil {
			return fmt.Errorf("sdf: write chunk %d of %q: %w", i, sd.meta.Name, err)
		}
	}
	return nil
}

func align8(v int64) int64 {
	return (v + 7) &^ 7
}
