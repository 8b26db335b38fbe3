package sdf

import (
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
//	  chunkTableLen u64 + entries [n]i64 (chunked only),
//	  packRunsLen u64 + runs [n](startLin, count, off i64) (packed only),
//	  attrCount u32 + attrs [n](key, value: u16 len + bytes), sorted by key
func encodeMeta(ds []*datasetMeta) ([]byte, error) {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, uint32(len(ds)))
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
		b = appendString16(b, m.Name)
		deb := uint8(0)
		if m.Debloated {
			deb = 1
		}
		b = append(b, uint8(m.DType), uint8(m.Layout), deb, uint8(len(m.Dims)))
		for _, d := range m.Dims {
			b = le.AppendUint64(b, uint64(d))
		}
		if m.Layout == layoutChunked {
			if len(m.Chunk) != len(m.Dims) {
				return nil, fmt.Errorf("sdf: dataset %q chunk rank mismatch", m.Name)
			}
			for _, c := range m.Chunk {
				b = le.AppendUint64(b, uint64(c))
			}
		}
		b = le.AppendUint64(b, uint64(m.DataOff))
		b = le.AppendUint64(b, uint64(m.DataLen))
		if m.Layout == layoutChunked {
			b = le.AppendUint64(b, uint64(len(m.ChunkTable)))
			for _, off := range m.ChunkTable {
				b = le.AppendUint64(b, uint64(off))
			}
		}
		if m.Layout == layoutPacked {
			b = le.AppendUint64(b, uint64(len(m.PackRuns)))
			for _, r := range m.PackRuns {
				b = le.AppendUint64(b, uint64(r.startLin))
				b = le.AppendUint64(b, uint64(r.count))
				b = le.AppendUint64(b, uint64(r.off))
			}
		}
		// Attributes, sorted for byte-stable output.
		keys := make([]string, 0, len(m.Attrs))
		for k := range m.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = le.AppendUint32(b, uint32(len(keys)))
		for _, k := range keys {
			v := m.Attrs[k]
			if len(k) > maxAttrLen || len(v) > maxAttrLen {
				return nil, fmt.Errorf("sdf: attribute %q of %q too long", k, m.Name)
			}
			b = appendString16(appendString16(b, k), v)
		}
	}
	return b, nil
}

// appendString16 appends s with its u16 length prefix.
func appendString16(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(b, uint16(len(s))), s...)
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
	le := binary.LittleEndian
	r := metaReader(b)
	count, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("sdf: truncated metadata: %w", err)
	}
	// Counts are bounded by the bytes left to hold them, so a hostile
	// claim fails before it sizes an allocation.
	if uint64(count) > uint64(len(r))/minDatasetMetaLen {
		return nil, fmt.Errorf("sdf: implausible dataset count %d", count)
	}
	ds := make([]*datasetMeta, 0, count)
	for i := uint32(0); i < count; i++ {
		m := &datasetMeta{}
		nameLen, err := r.u16()
		if err != nil {
			return nil, fmt.Errorf("sdf: truncated metadata: %w", err)
		}
		name, err := r.next(int(nameLen))
		if err != nil {
			return nil, fmt.Errorf("sdf: truncated dataset name: %w", err)
		}
		m.Name = string(name)
		// Four one-byte fields: a short block fails on a whole byte,
		// so with io.EOF.
		if len(r) < 4 {
			return nil, fmt.Errorf("sdf: truncated metadata for %q: %w", m.Name, io.EOF)
		}
		fields, _ := r.next(4)
		dt, lk, deb, rank := fields[0], fields[1], fields[2], fields[3]
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
		if m.Dims, err = r.ints(int(rank)); err != nil {
			return nil, fmt.Errorf("sdf: truncated dims for %q: %w", m.Name, err)
		}
		if m.Layout == layoutChunked {
			if m.Chunk, err = r.ints(int(rank)); err != nil {
				return nil, fmt.Errorf("sdf: truncated chunk shape for %q: %w", m.Name, err)
			}
		}
		off, err := r.u64()
		if err != nil {
			return nil, fmt.Errorf("sdf: truncated data extent for %q: %w", m.Name, err)
		}
		length, err := r.u64()
		if err != nil {
			return nil, fmt.Errorf("sdf: truncated data extent for %q: %w", m.Name, err)
		}
		m.DataOff = int64(off)
		m.DataLen = int64(length)
		if m.Layout == layoutChunked {
			n, err := r.u64()
			if err != nil {
				return nil, fmt.Errorf("sdf: truncated chunk table for %q: %w", m.Name, err)
			}
			// Each entry takes 8 bytes; a count beyond the remaining
			// buffer is corruption — reject before allocating.
			if n > uint64(len(r))/8 {
				return nil, fmt.Errorf("sdf: implausible chunk table size %d for %q", n, m.Name)
			}
			table, _ := r.next(int(n) * 8)
			m.ChunkTable = make([]int64, n)
			for k := range m.ChunkTable {
				m.ChunkTable[k] = int64(le.Uint64(table[8*k:]))
			}
		}
		if m.Layout == layoutPacked {
			n, err := r.u64()
			if err != nil {
				return nil, fmt.Errorf("sdf: truncated pack table for %q: %w", m.Name, err)
			}
			// Each run takes 24 bytes in the buffer.
			if n > uint64(len(r))/24 {
				return nil, fmt.Errorf("sdf: implausible pack table size %d for %q", n, m.Name)
			}
			table, _ := r.next(int(n) * 24)
			m.PackRuns = make([]packRun, n)
			for k := range m.PackRuns {
				run := table[24*k:]
				m.PackRuns[k] = packRun{
					startLin: int64(le.Uint64(run)),
					count:    int64(le.Uint64(run[8:])),
					off:      int64(le.Uint64(run[16:])),
				}
			}
		}
		attrCount, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("sdf: truncated attributes for %q: %w", m.Name, err)
		}
		if uint64(attrCount) > uint64(len(r))/minAttrLen {
			return nil, fmt.Errorf("sdf: implausible attribute count %d for %q", attrCount, m.Name)
		}
		if attrCount > 0 {
			m.Attrs = make(map[string]string, attrCount)
			for a := uint32(0); a < attrCount; a++ {
				k, err := r.string16()
				if err != nil {
					return nil, fmt.Errorf("sdf: truncated attribute key for %q: %w", m.Name, err)
				}
				v, err := r.string16()
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

// metaReader is the unread rest of a metadata block. Its fields are
// read with little-endian loads straight from the bytes; a field the
// block is too short for fails as io.ReadFull would: with io.EOF when
// no byte is left, and with io.ErrUnexpectedEOF, consuming the rest,
// when some are.
type metaReader []byte

// next consumes the next n bytes.
func (r *metaReader) next(n int) ([]byte, error) {
	b := *r
	switch {
	case n <= len(b):
		*r = b[n:]
		return b[:n], nil
	case len(b) == 0:
		return nil, io.EOF
	default:
		*r = nil
		return nil, io.ErrUnexpectedEOF
	}
}

func (r *metaReader) u16() (uint16, error) {
	b, err := r.next(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *metaReader) u32() (uint32, error) {
	b, err := r.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *metaReader) u64() (uint64, error) {
	b, err := r.next(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// ints reads n u64 extents.
func (r *metaReader) ints(n int) ([]int, error) {
	out := make([]int, n)
	for k := range out {
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		out[k] = int(v)
	}
	return out, nil
}

// string16 reads a u16-length-prefixed string.
func (r *metaReader) string16() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	b, err := r.next(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// metaCRC computes the checksum stored in the header for the metadata
// block.
func metaCRC(b []byte) uint32 {
	return crc32.ChecksumIEEE(b)
}
