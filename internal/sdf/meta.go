package sdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/array"
)

// datasetMeta is the self-description of one dataset within a file.
type datasetMeta struct {
	Name   string
	DType  array.DType
	Dims   []int
	Layout layoutKind
	Chunk  []int // chunk shape; nil for contiguous
	// DataOff is the absolute file offset of the dataset's data
	// region (contiguous data, or the base chunks are addressed
	// against for chunked datasets).
	DataOff int64
	// DataLen is the stored byte length of the data region. For a
	// debloated chunked dataset this is smaller than the logical
	// region because absent chunks take no space.
	DataLen int64
	// ChunkTable maps chunk linear id to the chunk's absolute file
	// offset, or missingChunk for carved-away chunks. Nil for
	// contiguous datasets.
	ChunkTable []int64
	// PackRuns is the run table of a packed (element-granular
	// debloated) dataset. Nil for other layouts.
	PackRuns []packRun
	// Debloated records that this dataset was carved by Kondo; reads
	// of absent chunks raise ErrDataMissing rather than a corruption
	// error.
	Debloated bool
	// Attrs carries HDF5-style string attributes (provenance stamps).
	Attrs map[string]string
}

func (m *datasetMeta) space() (array.Space, error) {
	return array.NewSpace(m.Dims...)
}

// encodeMeta serializes the metadata block. The encoding is
// little-endian with length-prefixed strings and slices:
//
//	count u32, then per dataset:
//	  name (u16 len + bytes), dtype u8, layout u8, debloated u8,
//	  rank u8, dims [rank]u64, chunk [rank]u64 (chunked only),
//	  dataOff u64, dataLen u64,
//	  chunkTableLen u64 + entries [n]i64 (chunked only)
func encodeMeta(ds []*datasetMeta) ([]byte, error) {
	var buf bytes.Buffer
	w := func(v any) {
		// bytes.Buffer writes never fail.
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	w(uint32(len(ds)))
	for _, m := range ds {
		if len(m.Name) > 0xFFFF {
			return nil, fmt.Errorf("sdf: dataset name too long (%d bytes)", len(m.Name))
		}
		if !m.DType.Valid() {
			return nil, fmt.Errorf("sdf: dataset %q has invalid dtype", m.Name)
		}
		if !m.Layout.valid() {
			return nil, fmt.Errorf("sdf: dataset %q has invalid layout", m.Name)
		}
		if len(m.Dims) == 0 || len(m.Dims) > 255 {
			return nil, fmt.Errorf("sdf: dataset %q has unsupported rank %d", m.Name, len(m.Dims))
		}
		w(uint16(len(m.Name)))
		buf.WriteString(m.Name)
		w(uint8(m.DType))
		w(uint8(m.Layout))
		deb := uint8(0)
		if m.Debloated {
			deb = 1
		}
		w(deb)
		w(uint8(len(m.Dims)))
		for _, d := range m.Dims {
			w(uint64(d))
		}
		if m.Layout == layoutChunked {
			if len(m.Chunk) != len(m.Dims) {
				return nil, fmt.Errorf("sdf: dataset %q chunk rank mismatch", m.Name)
			}
			for _, c := range m.Chunk {
				w(uint64(c))
			}
		}
		w(uint64(m.DataOff))
		w(uint64(m.DataLen))
		if m.Layout == layoutChunked {
			w(uint64(len(m.ChunkTable)))
			for _, off := range m.ChunkTable {
				w(off)
			}
		}
		if m.Layout == layoutPacked {
			w(uint64(len(m.PackRuns)))
			for _, r := range m.PackRuns {
				w(r.startLin)
				w(r.count)
				w(r.off)
			}
		}
		// Attributes, sorted for byte-stable output.
		keys := make([]string, 0, len(m.Attrs))
		for k := range m.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w(uint32(len(keys)))
		for _, k := range keys {
			v := m.Attrs[k]
			if len(k) > maxAttrLen || len(v) > maxAttrLen {
				return nil, fmt.Errorf("sdf: attribute %q of %q too long", k, m.Name)
			}
			w(uint16(len(k)))
			buf.WriteString(k)
			w(uint16(len(v)))
			buf.WriteString(v)
		}
	}
	return buf.Bytes(), nil
}

// The smallest encodings decodeMeta accepts: a rank-1 dataset with an
// empty name and no chunk table, pack table or attributes, and an
// attribute with an empty key and value.
const (
	minDatasetMetaLen = 2 + 4 + 8 + 16 + 4
	minAttrLen        = 2 + 2
)

// decodeMeta parses a metadata block produced by encodeMeta.
func decodeMeta(b []byte) ([]*datasetMeta, error) {
	r := bytes.NewReader(b)
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var count uint32
	if err := rd(&count); err != nil {
		return nil, fmt.Errorf("sdf: truncated metadata: %w", err)
	}
	// Counts are bounded by the bytes left to hold them, so a hostile
	// claim fails before it sizes an allocation.
	if uint64(count) > uint64(r.Len())/minDatasetMetaLen {
		return nil, fmt.Errorf("sdf: implausible dataset count %d", count)
	}
	ds := make([]*datasetMeta, 0, count)
	for i := uint32(0); i < count; i++ {
		m := &datasetMeta{}
		var nameLen uint16
		if err := rd(&nameLen); err != nil {
			return nil, fmt.Errorf("sdf: truncated metadata: %w", err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("sdf: truncated dataset name: %w", err)
		}
		m.Name = string(name)
		var dt, lk, deb, rank uint8
		if err := firstErr(rd(&dt), rd(&lk), rd(&deb), rd(&rank)); err != nil {
			return nil, fmt.Errorf("sdf: truncated metadata for %q: %w", m.Name, err)
		}
		m.DType = array.DType(dt)
		if !m.DType.Valid() {
			return nil, fmt.Errorf("sdf: dataset %q: invalid dtype %d", m.Name, dt)
		}
		m.Layout = layoutKind(lk)
		if !m.Layout.valid() {
			return nil, fmt.Errorf("sdf: dataset %q: invalid layout %d", m.Name, lk)
		}
		m.Debloated = deb != 0
		if rank == 0 {
			return nil, fmt.Errorf("sdf: dataset %q: zero rank", m.Name)
		}
		m.Dims = make([]int, rank)
		for k := range m.Dims {
			var v uint64
			if err := rd(&v); err != nil {
				return nil, fmt.Errorf("sdf: truncated dims for %q: %w", m.Name, err)
			}
			m.Dims[k] = int(v)
		}
		if m.Layout == layoutChunked {
			m.Chunk = make([]int, rank)
			for k := range m.Chunk {
				var v uint64
				if err := rd(&v); err != nil {
					return nil, fmt.Errorf("sdf: truncated chunk shape for %q: %w", m.Name, err)
				}
				m.Chunk[k] = int(v)
			}
		}
		var off, length uint64
		if err := firstErr(rd(&off), rd(&length)); err != nil {
			return nil, fmt.Errorf("sdf: truncated data extent for %q: %w", m.Name, err)
		}
		m.DataOff = int64(off)
		m.DataLen = int64(length)
		if m.Layout == layoutChunked {
			var n uint64
			if err := rd(&n); err != nil {
				return nil, fmt.Errorf("sdf: truncated chunk table for %q: %w", m.Name, err)
			}
			// Each entry takes 8 bytes; a count beyond the remaining
			// buffer is corruption — reject before allocating.
			if n > uint64(r.Len())/8 {
				return nil, fmt.Errorf("sdf: implausible chunk table size %d for %q", n, m.Name)
			}
			m.ChunkTable = make([]int64, n)
			for k := range m.ChunkTable {
				if err := rd(&m.ChunkTable[k]); err != nil {
					return nil, fmt.Errorf("sdf: truncated chunk table for %q: %w", m.Name, err)
				}
			}
		}
		if m.Layout == layoutPacked {
			var n uint64
			if err := rd(&n); err != nil {
				return nil, fmt.Errorf("sdf: truncated pack table for %q: %w", m.Name, err)
			}
			// Each run takes 24 bytes in the buffer.
			if n > uint64(r.Len())/24 {
				return nil, fmt.Errorf("sdf: implausible pack table size %d for %q", n, m.Name)
			}
			m.PackRuns = make([]packRun, n)
			for k := range m.PackRuns {
				if err := firstErr(rd(&m.PackRuns[k].startLin), rd(&m.PackRuns[k].count), rd(&m.PackRuns[k].off)); err != nil {
					return nil, fmt.Errorf("sdf: truncated pack table for %q: %w", m.Name, err)
				}
			}
		}
		var attrCount uint32
		if err := rd(&attrCount); err != nil {
			return nil, fmt.Errorf("sdf: truncated attributes for %q: %w", m.Name, err)
		}
		if uint64(attrCount) > uint64(r.Len())/minAttrLen {
			return nil, fmt.Errorf("sdf: implausible attribute count %d for %q", attrCount, m.Name)
		}
		if attrCount > 0 {
			m.Attrs = make(map[string]string, attrCount)
			for a := uint32(0); a < attrCount; a++ {
				k, err := readString16(r)
				if err != nil {
					return nil, fmt.Errorf("sdf: truncated attribute key for %q: %w", m.Name, err)
				}
				v, err := readString16(r)
				if err != nil {
					return nil, fmt.Errorf("sdf: truncated attribute value for %q: %w", m.Name, err)
				}
				m.Attrs[k] = v
			}
		}
		ds = append(ds, m)
	}
	return ds, nil
}

// readString16 reads a u16-length-prefixed string.
func readString16(r *bytes.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// metaCRC computes the checksum stored in the header for the metadata
// block.
func metaCRC(b []byte) uint32 {
	return crc32.ChecksumIEEE(b)
}
