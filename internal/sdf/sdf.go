// Package sdf implements a self-describing data format for
// d-dimensional arrays, standing in for HDF5/NetCDF in this
// reproduction. Like those formats (and as Kondo's audit requires,
// paper §IV-C and §VI), an sdf file carries its own metadata — dataset
// names, dimensions, element type, and chunking — so the byte offset
// of every element is derivable from the metadata alone.
//
// A file holds one or more named datasets. Each dataset is stored
// either contiguously (row-major) or chunked (fixed-shape chunks,
// row-major chunk order, edge chunks padded). Chunked datasets carry a
// chunk table so that a *debloated* file can omit chunks entirely:
// reading an absent chunk yields ErrDataMissing, which is the
// "data missing" exception of paper §III.
//
// File layout:
//
//	offset 0:  magic "SDF1" | version u16 | reserved u16
//	           metaLen u32 | metaCRC u32
//	offset 16: metadata block (metaLen bytes, see encodeMeta)
//	then:      data regions, one per dataset, 8-byte aligned
package sdf

import (
	"errors"
	"fmt"
)

// Magic is the four-byte signature at the start of every sdf file.
const Magic = "SDF1"

// Version is the format version written by this package.
const Version uint16 = 1

// headerSize is the fixed-size prefix before the metadata block.
const headerSize = 16

// ErrDataMissing is returned when a read touches an element or chunk
// that was carved away during debloating. Kondo's runtime surfaces
// this as the "data missing" exception (paper §III, §VI).
var ErrDataMissing = errors.New("sdf: data missing (debloated away)")

// missingError is the ErrDataMissing of one carved-away element of a
// chunked or packed dataset. A recovering runtime meets one for every
// element it recovers and never prints it, so the error keeps the
// element's linear position and formats its message only when Error
// is called.
type missingError struct {
	ds  *Dataset
	lin int64
}

func (e *missingError) Error() string {
	ix, _ := e.ds.space.Unlinear(e.lin)
	if e.ds.packed != nil {
		return fmt.Sprintf("%v: linear position %d (index %v of %q)", ErrDataMissing, e.lin, ix, e.ds.meta.Name)
	}
	return fmt.Sprintf("%v: index %v of %q", ErrDataMissing, ix, e.ds.meta.Name)
}

func (e *missingError) Unwrap() error { return ErrDataMissing }

// ErrNotFound is returned when a named dataset does not exist.
var ErrNotFound = errors.New("sdf: dataset not found")

// layoutKind discriminates dataset storage layouts.
type layoutKind uint8

const (
	layoutContiguous layoutKind = 1
	layoutChunked    layoutKind = 2
	layoutPacked     layoutKind = 3
)

// missingChunk marks an absent chunk in a chunk table.
const missingChunk = int64(-1)

func (k layoutKind) valid() bool {
	return k == layoutContiguous || k == layoutChunked || k == layoutPacked
}

func (k layoutKind) String() string {
	switch k {
	case layoutContiguous:
		return "contiguous"
	case layoutChunked:
		return "chunked"
	case layoutPacked:
		return "packed"
	default:
		return fmt.Sprintf("layout(%d)", uint8(k))
	}
}
