package sdf

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/array"
)

// encodeValues writes vals as consecutive elements of type dt into
// dst, which must hold at least len(vals)*dt.Size() bytes. The API
// surfaces all values as float64; integer types truncate, and
// LongDouble stores the float64 payload in the low 8 bytes with zero
// padding so the on-disk element size is 16 bytes as in the paper.
func encodeValues(dst []byte, dt array.DType, vals []float64) {
	le := binary.LittleEndian
	switch dt {
	case array.Float32:
		for i, v := range vals {
			le.PutUint32(dst[4*i:], math.Float32bits(float32(v)))
		}
	case array.Float64:
		for i, v := range vals {
			le.PutUint64(dst[8*i:], math.Float64bits(v))
		}
	case array.Int32:
		for i, v := range vals {
			le.PutUint32(dst[4*i:], uint32(int32(v)))
		}
	case array.Int64:
		for i, v := range vals {
			le.PutUint64(dst[8*i:], uint64(int64(v)))
		}
	case array.LongDouble:
		for i, v := range vals {
			le.PutUint64(dst[16*i:], math.Float64bits(v))
			le.PutUint64(dst[16*i+8:], 0)
		}
	default:
		panic(fmt.Sprintf("sdf: encode of invalid dtype %d", dt))
	}
}

// decodeValues reads len(dst) consecutive elements of type dt from
// src.
func decodeValues(dst []float64, src []byte, dt array.DType) {
	le := binary.LittleEndian
	switch dt {
	case array.Float32:
		for i := range dst {
			dst[i] = float64(math.Float32frombits(le.Uint32(src[4*i:])))
		}
	case array.Float64:
		for i := range dst {
			dst[i] = math.Float64frombits(le.Uint64(src[8*i:]))
		}
	case array.Int32:
		for i := range dst {
			dst[i] = float64(int32(le.Uint32(src[4*i:])))
		}
	case array.Int64:
		for i := range dst {
			dst[i] = float64(int64(le.Uint64(src[8*i:])))
		}
	case array.LongDouble:
		for i := range dst {
			dst[i] = math.Float64frombits(le.Uint64(src[16*i:]))
		}
	default:
		panic(fmt.Sprintf("sdf: decode of invalid dtype %d", dt))
	}
}

// decodeValue reads one element value from src.
func decodeValue(src []byte, dt array.DType) float64 {
	var v [1]float64
	decodeValues(v[:], src, dt)
	return v[0]
}
