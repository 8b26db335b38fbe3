// Package array implements Kondo's array-oriented data model (paper
// §III): a d-dimensional data array D is a map from a d-dimensional
// logical index space I to values. The package provides the index
// space abstraction, row-major and chunked linearizations, and the
// one-one mapping between index tuples and byte offsets that Kondo's
// I/O event audit relies on (paper §IV-C).
package array

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Index identifies one element of a data array: a d-dimensional vector
// of non-negative coordinates (i_1, ..., i_d).
type Index []int

// NewIndex returns an Index with the given coordinates.
func NewIndex(coords ...int) Index {
	ix := make(Index, len(coords))
	copy(ix, coords)
	return ix
}

// Clone returns a copy of the index sharing no storage with it.
func (ix Index) Clone() Index {
	c := make(Index, len(ix))
	copy(c, ix)
	return c
}

// Equal reports whether two indices have identical dimension and
// coordinates.
func (ix Index) Equal(o Index) bool {
	if len(ix) != len(o) {
		return false
	}
	for i := range ix {
		if ix[i] != o[i] {
			return false
		}
	}
	return true
}

// String formats the index as "[i1 i2 ...]".
func (ix Index) String() string {
	parts := make([]string, len(ix))
	for i, v := range ix {
		parts[i] = fmt.Sprint(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Space is a d-dimensional logical index space with extent Dims[k]
// along dimension k. Valid indices satisfy 0 <= i_k < Dims[k].
type Space struct {
	dims []int
	size int64
}

// NewSpace returns the index space with the given extents. All
// extents must be positive, and their product (the element count)
// must fit in an int64, so that every linear position does too.
func NewSpace(dims ...int) (Space, error) {
	if len(dims) == 0 {
		return Space{}, errors.New("array: space needs at least one dimension")
	}
	size := int64(1)
	for _, d := range dims {
		if d <= 0 {
			return Space{}, fmt.Errorf("array: invalid extent %d", d)
		}
		if size > math.MaxInt64/int64(d) {
			return Space{}, fmt.Errorf("array: extents %v hold more than %d elements", dims, int64(math.MaxInt64))
		}
		size *= int64(d)
	}
	ds := make([]int, len(dims))
	copy(ds, dims)
	return Space{dims: ds, size: size}, nil
}

// MustSpace is NewSpace that panics on error, for tests and
// compile-time-constant shapes.
func MustSpace(dims ...int) Space {
	s, err := NewSpace(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// Rank returns the number of dimensions d.
func (s Space) Rank() int { return len(s.dims) }

// Dims returns a copy of the extents.
func (s Space) Dims() []int {
	d := make([]int, len(s.dims))
	copy(d, s.dims)
	return d
}

// Dim returns the extent along dimension k.
func (s Space) Dim(k int) int { return s.dims[k] }

// Size returns the total number of elements in the space.
func (s Space) Size() int64 { return s.size }

// Contains reports whether ix is a valid index into the space.
func (s Space) Contains(ix Index) bool {
	if len(ix) != len(s.dims) {
		return false
	}
	for k, v := range ix {
		if v < 0 || v >= s.dims[k] {
			return false
		}
	}
	return true
}

// Linear returns the row-major linear position of ix: the last
// dimension varies fastest, matching HDF5's C-order layout.
func (s Space) Linear(ix Index) (int64, error) {
	if !s.Contains(ix) {
		return 0, fmt.Errorf("array: index %v out of bounds for space %v", ix, s.dims)
	}
	var lin int64
	for k, v := range ix {
		lin = lin*int64(s.dims[k]) + int64(v)
	}
	return lin, nil
}

// Unlinear is the inverse of Linear: it maps a row-major linear
// position back to an index tuple.
func (s Space) Unlinear(lin int64) (Index, error) {
	if lin < 0 || lin >= s.size {
		return nil, fmt.Errorf("array: linear position %d out of range [0, %d)", lin, s.size)
	}
	ix := make(Index, len(s.dims))
	for k := len(s.dims) - 1; k >= 0; k-- {
		d := int64(s.dims[k])
		ix[k] = int(lin % d)
		lin /= d
	}
	return ix, nil
}

// Each calls fn for every index in the space in row-major order,
// stopping early if fn returns false. The Index passed to fn is reused
// between calls; clone it if it escapes.
func (s Space) Each(fn func(Index) bool) {
	ix := make(Index, len(s.dims))
	for {
		if !fn(ix) {
			return
		}
		k := len(ix) - 1
		for k >= 0 {
			ix[k]++
			if ix[k] < s.dims[k] {
				break
			}
			ix[k] = 0
			k--
		}
		if k < 0 {
			return
		}
	}
}

// String formats the space as "d1×d2×...".
func (s Space) String() string {
	parts := make([]string, len(s.dims))
	for i, v := range s.dims {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, "×")
}
