package array

import (
	"fmt"
	"math"
)

// Layout maps index tuples to byte offsets within a dataset's data
// region. Kondo's audit needs the mapping in both directions: fuzzing
// and carving happen in index space, while system-call events carry
// byte offsets (paper §IV-C). The way back is a walk over runs of
// elements: sdf.Dataset.IndexRuns, which uses ChunkedLayout.ChunkRows
// for a chunked dataset.
type Layout interface {
	// Offset returns the byte offset (relative to the start of the
	// dataset's data region) of the element at ix.
	Offset(ix Index) (int64, error)
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
// shape. Every chunk extent must be positive, and a chunk's element
// count and byte size must fit in an int64; an extent may exceed the
// space's, which gives one padded chunk along that axis.
func NewChunkedLayout(space Space, dt DType, chunk []int) (*ChunkedLayout, error) {
	if len(chunk) != space.Rank() {
		return nil, fmt.Errorf("array: chunk rank %d != space rank %d", len(chunk), space.Rank())
	}
	gridDims := make([]int, space.Rank())
	for k, c := range chunk {
		if c <= 0 {
			return nil, fmt.Errorf("array: invalid chunk extent %d", c)
		}
		gridDims[k] = (space.Dim(k)-1)/c + 1
	}
	grid, err := NewSpace(gridDims...)
	if err != nil {
		return nil, err
	}
	// A chunk is an index space too; its byte size must fit as well.
	cspace, err := NewSpace(chunk...)
	if err != nil {
		return nil, fmt.Errorf("array: chunk shape: %w", err)
	}
	vol := cspace.Size()
	if vol > math.MaxInt64/int64(dt.Size()) {
		return nil, fmt.Errorf("array: chunk %v is larger than %d bytes", chunk, int64(math.MaxInt64))
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

// rowWalkRank is the highest rank whose ChunkRows walk keeps its
// coordinates on the stack; higher ranks allocate them.
const rowWalkRank = 9

// ChunkRows calls fn once for each row of the chunk with linear id
// chunk that the within-chunk element positions [from, to) reach, in
// ascending order, with the inclusive run [lo, hi] of the space's
// row-major linear positions those elements hold. A row is a stretch
// of the chunk along the last dimension, so its elements are
// consecutive in the space too. Rows are clipped to the space: edge
// padding yields nothing, and from and to are clamped to the chunk.
// It is the inverse of Locate for a run of elements. It places the
// first row with one divide per dimension and steps to each later row
// without any, and allocates nothing up to rank rowWalkRank.
func (l *ChunkedLayout) ChunkRows(chunk, from, to int64, fn func(lo, hi int64)) {
	from, to = max(from, 0), min(to, l.chunkVol)
	if chunk < 0 || chunk >= l.chunkGrid.Size() || from >= to {
		return
	}
	last := len(l.chunk) - 1
	width := int64(l.chunk[last])
	dims := l.space.dims
	gridDims := l.chunkGrid.dims
	// The chunk's columns along the last dimension, clipped to the
	// space.
	col0 := chunk % int64(gridDims[last]) * width
	colEnd := min(col0+width, int64(dims[last]))
	chunk /= int64(gridDims[last])
	// Place the first row. Along each dimension k but the last, w[k] is
	// its coordinate within the chunk and n[k] the number of the chunk's
	// coordinates that lie inside the space; lin is the linear position
	// of its column 0, and outside the number of dimensions along which
	// it lies in the padding.
	var wBuf, nBuf [rowWalkRank - 1]int64
	w, n := wBuf[:], nBuf[:]
	if last > len(wBuf) {
		w, n = make([]int64, last), make([]int64, last)
	}
	row, lastRow := from/width, (to-1)/width
	lin, stride, outside := int64(0), int64(dims[last]), 0
	r, c := row, chunk
	for k := last - 1; k >= 0; k-- {
		ext := int64(l.chunk[k])
		origin := c % int64(gridDims[k]) * ext
		w[k], n[k] = r%ext, min(ext, int64(dims[k])-origin)
		r, c = r/ext, c/int64(gridDims[k])
		lin += (origin + w[k]) * stride
		stride *= int64(dims[k])
		if w[k] >= n[k] {
			outside++
		}
	}
	for ; ; row++ {
		if outside == 0 {
			first := col0 + max(from-row*width, 0)
			end := min(col0+to-row*width, colEnd)
			if first < end {
				fn(lin+first, lin+end-1)
			}
		}
		if row == lastRow {
			return
		}
		// Step to the next row like an odometer: bump the innermost
		// coordinate, and carry outwards past each one that wraps at the
		// chunk's extent. row < lastRow, so the outermost never wraps.
		stride = int64(dims[last])
		for k := last - 1; ; k-- {
			ext := int64(l.chunk[k])
			w[k]++
			lin += stride
			if w[k] < ext {
				if w[k] == n[k] {
					outside++
				}
				break
			}
			if n[k] < ext {
				outside--
			}
			w[k] = 0
			lin -= ext * stride
			stride *= int64(dims[k])
		}
	}
}

// Offset implements Layout.
func (l *ChunkedLayout) Offset(ix Index) (int64, error) {
	chunk, within, err := l.Locate(ix)
	if err != nil {
		return 0, err
	}
	return (chunk*l.chunkVol + within) * l.elem, nil
}
