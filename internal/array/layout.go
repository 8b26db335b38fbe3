package array

import (
	"fmt"
)

// Layout maps index tuples to byte offsets within a dataset's data
// region. Kondo's audit needs this mapping in both directions: fuzzing
// and carving happen in index space, while system-call events carry
// byte offsets (paper §IV-C).
type Layout interface {
	// Offset returns the byte offset (relative to the start of the
	// dataset's data region) of the element at ix.
	Offset(ix Index) (int64, error)
	// IndexAt is the inverse of Offset. The offset must be
	// element-aligned.
	IndexAt(off int64) (Index, error)
	// DataSize returns the total size in bytes of the data region.
	DataSize() int64
}

// ContiguousLayout stores elements in row-major order, back to back.
type ContiguousLayout struct {
	space Space
	elem  int64 // element size in bytes
}

// NewContiguousLayout returns the row-major layout for the given
// space and element type.
func NewContiguousLayout(space Space, dt DType) *ContiguousLayout {
	return &ContiguousLayout{space: space, elem: int64(dt.Size())}
}

// Offset implements Layout.
func (l *ContiguousLayout) Offset(ix Index) (int64, error) {
	lin, err := l.space.Linear(ix)
	if err != nil {
		return 0, err
	}
	return lin * l.elem, nil
}

// IndexAt implements Layout.
func (l *ContiguousLayout) IndexAt(off int64) (Index, error) {
	if off%l.elem != 0 {
		return nil, fmt.Errorf("array: offset %d not aligned to %d-byte elements", off, l.elem)
	}
	return l.space.Unlinear(off / l.elem)
}

// DataSize implements Layout.
func (l *ContiguousLayout) DataSize() int64 { return l.space.Size() * l.elem }

// ChunkedLayout stores the array as a grid of fixed-shape chunks, each
// chunk contiguous (row-major within the chunk), chunks ordered
// row-major by chunk coordinate. Edge chunks are stored at full chunk
// size (as HDF5 does for fixed datasets), so the mapping stays
// bijective and cheap.
type ChunkedLayout struct {
	space     Space
	chunk     []int // chunk shape per dimension
	chunkGrid Space // space of chunk coordinates
	chunkVol  int64 // elements per chunk
	elem      int64
}

// NewChunkedLayout returns a chunked layout with the given chunk
// shape. Every chunk extent must be positive and no larger than the
// corresponding space extent.
func NewChunkedLayout(space Space, dt DType, chunk []int) (*ChunkedLayout, error) {
	if len(chunk) != space.Rank() {
		return nil, fmt.Errorf("array: chunk rank %d != space rank %d", len(chunk), space.Rank())
	}
	gridDims := make([]int, space.Rank())
	vol := int64(1)
	for k, c := range chunk {
		if c <= 0 {
			return nil, fmt.Errorf("array: invalid chunk extent %d", c)
		}
		gridDims[k] = (space.Dim(k) + c - 1) / c
		vol *= int64(c)
	}
	grid, err := NewSpace(gridDims...)
	if err != nil {
		return nil, err
	}
	cs := make([]int, len(chunk))
	copy(cs, chunk)
	return &ChunkedLayout{
		space:     space,
		chunk:     cs,
		chunkGrid: grid,
		chunkVol:  vol,
		elem:      int64(dt.Size()),
	}, nil
}

// ChunkShape returns a copy of the chunk extents.
func (l *ChunkedLayout) ChunkShape() []int {
	c := make([]int, len(l.chunk))
	copy(c, l.chunk)
	return c
}

// NumChunks returns the total number of chunks.
func (l *ChunkedLayout) NumChunks() int64 { return l.chunkGrid.Size() }

// Grid returns the space of chunk coordinates (the chunk grid).
func (l *ChunkedLayout) Grid() Space { return l.chunkGrid }

// ChunkSizeBytes returns the stored size of one chunk in bytes.
func (l *ChunkedLayout) ChunkSizeBytes() int64 { return l.chunkVol * l.elem }

// ChunkCoord returns the chunk coordinate containing ix and the
// intra-chunk index.
func (l *ChunkedLayout) ChunkCoord(ix Index) (chunk Index, within Index, err error) {
	if !l.space.Contains(ix) {
		return nil, nil, fmt.Errorf("array: index %v out of bounds", ix)
	}
	chunk = make(Index, len(ix))
	within = make(Index, len(ix))
	for k, v := range ix {
		chunk[k] = v / l.chunk[k]
		within[k] = v % l.chunk[k]
	}
	return chunk, within, nil
}

// ChunkLinear returns the row-major linear id of a chunk coordinate.
func (l *ChunkedLayout) ChunkLinear(chunk Index) (int64, error) {
	return l.chunkGrid.Linear(chunk)
}

// Locate returns the row-major linear id of the chunk holding ix and
// ix's row-major position within that chunk, in one pass over the
// coordinates and without allocating.
func (l *ChunkedLayout) Locate(ix Index) (chunk, within int64, err error) {
	if !l.space.Contains(ix) {
		return 0, 0, fmt.Errorf("array: index %v out of bounds", ix)
	}
	for k, v := range ix {
		c := l.chunk[k]
		chunk = chunk*int64(l.chunkGrid.dims[k]) + int64(v/c)
		within = within*int64(c) + int64(v%c)
	}
	return chunk, within, nil
}

// Offset implements Layout.
func (l *ChunkedLayout) Offset(ix Index) (int64, error) {
	chunk, within, err := l.Locate(ix)
	if err != nil {
		return 0, err
	}
	return (chunk*l.chunkVol + within) * l.elem, nil
}

// IndexAt implements Layout.
func (l *ChunkedLayout) IndexAt(off int64) (Index, error) {
	if off%l.elem != 0 {
		return nil, fmt.Errorf("array: offset %d not aligned to %d-byte elements", off, l.elem)
	}
	lin := off / l.elem
	chunkLin := lin / l.chunkVol
	withinLin := lin % l.chunkVol
	chunk, err := l.chunkGrid.Unlinear(chunkLin)
	if err != nil {
		return nil, fmt.Errorf("array: offset %d beyond data region: %w", off, err)
	}
	ix := make(Index, len(l.chunk))
	for k := len(l.chunk) - 1; k >= 0; k-- {
		c := int64(l.chunk[k])
		ix[k] = chunk[k]*l.chunk[k] + int(withinLin%c)
		withinLin /= c
	}
	if !l.space.Contains(ix) {
		// Offset lands in the padding of an edge chunk: a real byte
		// position but not a logical element.
		return nil, fmt.Errorf("array: offset %d falls in edge-chunk padding", off)
	}
	return ix, nil
}

// DataSize implements Layout. Edge chunks are padded to full size.
func (l *ChunkedLayout) DataSize() int64 {
	return l.chunkGrid.Size() * l.chunkVol * l.elem
}
