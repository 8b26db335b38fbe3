package sdf

import (
	"fmt"

	"repro/internal/array"
)

// Hyperslab is an HDF5-style rectangular selection: along each
// dimension k it selects Count[k] blocks of Block[k] consecutive
// positions, the blocks spaced Stride[k] apart, starting at Start[k].
// The h5bench stencil programs (paper §V-A) express their I/O patterns
// as hyperslab selections.
type Hyperslab struct {
	Start  []int
	Stride []int
	Count  []int
	Block  []int
}

// Slab returns the hyperslab selecting a single dense block of shape
// count starting at start (stride = block = 1 semantics, expressed as
// one block per dimension).
func Slab(start, count []int) Hyperslab {
	rank := len(start)
	h := Hyperslab{
		Start:  append([]int(nil), start...),
		Stride: make([]int, rank),
		Count:  make([]int, rank),
		Block:  append([]int(nil), count...),
	}
	for k := 0; k < rank; k++ {
		h.Stride[k] = 1
		h.Count[k] = 1
	}
	return h
}

// Validate checks the selection against a space and returns a
// descriptive error for any violation.
func (h Hyperslab) Validate(space array.Space) error {
	rank := space.Rank()
	if len(h.Start) != rank || len(h.Stride) != rank || len(h.Count) != rank || len(h.Block) != rank {
		return fmt.Errorf("sdf: hyperslab rank mismatch (space rank %d)", rank)
	}
	for k := 0; k < rank; k++ {
		if h.Start[k] < 0 {
			return fmt.Errorf("sdf: hyperslab start[%d] = %d < 0", k, h.Start[k])
		}
		if h.Count[k] <= 0 || h.Block[k] <= 0 {
			return fmt.Errorf("sdf: hyperslab count/block[%d] must be positive", k)
		}
		if h.Stride[k] <= 0 {
			return fmt.Errorf("sdf: hyperslab stride[%d] must be positive", k)
		}
		if h.Block[k] > h.Stride[k] && h.Count[k] > 1 {
			return fmt.Errorf("sdf: hyperslab blocks overlap along dim %d (block %d > stride %d)",
				k, h.Block[k], h.Stride[k])
		}
		last := h.Start[k] + (h.Count[k]-1)*h.Stride[k] + h.Block[k] - 1
		if last >= space.Dim(k) {
			return fmt.Errorf("sdf: hyperslab exceeds dim %d (last index %d >= extent %d)",
				k, last, space.Dim(k))
		}
	}
	return nil
}

// NumElements returns the number of selected elements.
func (h Hyperslab) NumElements() int64 {
	n := int64(1)
	for k := range h.Count {
		n *= int64(h.Count[k]) * int64(h.Block[k])
	}
	return n
}

// Each visits every selected index in row-major selection order,
// stopping early if fn returns false. The index passed to fn is reused
// between calls.
func (h Hyperslab) Each(fn func(array.Index) bool) {
	rank := len(h.Start)
	// Per-dimension position counters: which block and which offset
	// within the block.
	block := make([]int, rank)
	within := make([]int, rank)
	ix := make(array.Index, rank)
	for {
		for k := 0; k < rank; k++ {
			ix[k] = h.Start[k] + block[k]*h.Stride[k] + within[k]
		}
		if !fn(ix) {
			return
		}
		// Odometer increment over (block, within) pairs, last
		// dimension fastest, within varying faster than block.
		k := rank - 1
		for k >= 0 {
			within[k]++
			if within[k] < h.Block[k] {
				break
			}
			within[k] = 0
			block[k]++
			if block[k] < h.Count[k] {
				break
			}
			block[k] = 0
			k--
		}
		if k < 0 {
			return
		}
	}
}

// eachRow calls fn once for each row of the selection, in selection
// order, with ix set to the row's first index. A row is one block along
// the last dimension: Block[last] consecutive positions. ix must have
// the selection's rank; fn may change ix[last] but no other
// coordinate. The walk stops at the first error fn returns, and eachRow
// returns it.
func (h Hyperslab) eachRow(ix array.Index, fn func(array.Index) error) error {
	last := len(h.Start) - 1
	// block[k] and within[k] place ix[k] for each dimension before the
	// last: which block, and which position within the block.
	block := make([]int, 2*last)
	block, within := block[:last], block[last:]
	for {
		for k := 0; k < last; k++ {
			ix[k] = h.Start[k] + block[k]*h.Stride[k] + within[k]
		}
		for b := 0; b < h.Count[last]; b++ {
			ix[last] = h.Start[last] + b*h.Stride[last]
			if err := fn(ix); err != nil {
				return err
			}
		}
		// Odometer increment over the dimensions before the last, the
		// last of them fastest, within varying faster than block.
		k := last - 1
		for k >= 0 {
			within[k]++
			if within[k] < h.Block[k] {
				break
			}
			within[k] = 0
			block[k]++
			if block[k] < h.Count[k] {
				break
			}
			block[k] = 0
			k--
		}
		if k < 0 {
			return nil
		}
	}
}
