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
	// data is the full (padded, for chunked layouts) data region.
	data []byte
	// present, for debloated chunked datasets, marks which chunks
	// will be written. Nil means all chunks present.
	present []bool
	// packedRuns, for packed (element-granular debloated) datasets,
	// lists the kept element runs.
	packedRuns []packRun
	layout     array.Layout
}

// NewWriter returns a Writer that will create the file at path on
// Close.
func NewWriter(path string) *Writer {
	return &Writer{path: path, byName: make(map[string]*stagedDataset)}
}

// DatasetWriter provides element-level population of one staged
// dataset.
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
	}
	if len(chunk) == 0 {
		sd.meta.Layout = layoutContiguous
		sd.layout = array.NewContiguousLayout(space, dt)
	} else {
		cl, err := array.NewChunkedLayout(space, dt, chunk)
		if err != nil {
			return nil, err
		}
		sd.meta.Layout = layoutChunked
		sd.meta.Chunk = cl.ChunkShape()
		sd.layout = cl
	}
	sd.data = make([]byte, sd.layout.DataSize())
	w.datasets = append(w.datasets, sd)
	w.byName[name] = sd
	return &DatasetWriter{w: w, sd: sd}, nil
}

// Set writes the value of one element.
func (dw *DatasetWriter) Set(ix array.Index, v float64) error {
	off, err := dw.sd.layout.Offset(ix)
	if err != nil {
		return err
	}
	encodeValue(dw.sd.data[off:], dw.sd.meta.DType, v)
	return nil
}

// Fill populates every element from fn(ix). The index passed to fn is
// reused; clone it if it escapes.
func (dw *DatasetWriter) Fill(fn func(array.Index) float64) error {
	var fillErr error
	dw.sd.space.Each(func(ix array.Index) bool {
		if err := dw.Set(ix, fn(ix)); err != nil {
			fillErr = err
			return false
		}
		return true
	})
	return fillErr
}

// OmitChunksExcept marks the dataset as debloated and keeps only the
// chunks whose linear ids appear in keep. It is only valid for chunked
// datasets; the debloat package uses it to materialize D_Θ.
func (dw *DatasetWriter) OmitChunksExcept(keep map[int64]bool) error {
	sd := dw.sd
	if sd.meta.Layout != layoutChunked {
		return fmt.Errorf("sdf: OmitChunksExcept on contiguous dataset %q", sd.meta.Name)
	}
	cl := sd.layout.(*array.ChunkedLayout)
	n := cl.NumChunks()
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
		elem := int64(sd.meta.DType.Size())
		off := base
		runs := make([]packRun, len(sd.packedRuns))
		for i, r := range sd.packedRuns {
			r.off = off
			runs[i] = r
			off += r.count * elem
		}
		sd.meta.PackRuns = runs
		sd.meta.DataLen = off - base
		return
	}
	cl := sd.layout.(*array.ChunkedLayout)
	n := cl.NumChunks()
	chunkBytes := cl.ChunkSizeBytes()
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
		elem := int64(sd.meta.DType.Size())
		for _, r := range sd.meta.PackRuns {
			src := sd.data[r.startLin*elem : (r.startLin+r.count)*elem]
			if _, err := f.WriteAt(src, r.off); err != nil {
				return fmt.Errorf("sdf: write packed run of %q: %w", sd.meta.Name, err)
			}
		}
		return nil
	}
	cl := sd.layout.(*array.ChunkedLayout)
	chunkBytes := cl.ChunkSizeBytes()
	for i, off := range sd.meta.ChunkTable {
		if off == missingChunk {
			continue
		}
		src := sd.data[int64(i)*chunkBytes : (int64(i)+1)*chunkBytes]
		if _, err := f.WriteAt(src, off); err != nil {
			return fmt.Errorf("sdf: write chunk %d of %q: %w", i, sd.meta.Name, err)
		}
	}
	return nil
}

func align8(v int64) int64 {
	return (v + 7) &^ 7
}
