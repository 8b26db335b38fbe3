package sdf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/array"
)

func TestCodecRoundTripFloats(t *testing.T) {
	buf := make([]byte, 16)
	for _, dt := range []array.DType{array.Float64, array.LongDouble} {
		f := func(v float64) bool {
			if math.IsNaN(v) {
				return true // NaN != NaN; storage still works but skip compare
			}
			encodeValues(buf, dt, []float64{v})
			return decodeValue(buf, dt) == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", dt, err)
		}
	}
}

func TestCodecFloat32Precision(t *testing.T) {
	buf := make([]byte, 4)
	encodeValues(buf, array.Float32, []float64{1.5})
	if got := decodeValue(buf, array.Float32); got != 1.5 {
		t.Errorf("float32 round trip = %v", got)
	}
	// Values beyond float32 precision are truncated, not corrupted.
	encodeValues(buf, array.Float32, []float64{math.Pi})
	if got := decodeValue(buf, array.Float32); math.Abs(got-math.Pi) > 1e-6 {
		t.Errorf("float32 pi = %v", got)
	}
}

func TestCodecIntegersTruncate(t *testing.T) {
	buf := make([]byte, 8)
	cases := []struct {
		dt   array.DType
		in   float64
		want float64
	}{
		{array.Int32, 42.9, 42},
		{array.Int32, -7.2, -7},
		{array.Int64, 1 << 40, 1 << 40},
		{array.Int64, -3.999, -3},
	}
	for _, c := range cases {
		encodeValues(buf, c.dt, []float64{c.in})
		if got := decodeValue(buf, c.dt); got != c.want {
			t.Errorf("%v(%v) = %v, want %v", c.dt, c.in, got, c.want)
		}
	}
}

func TestCodecNaNStorable(t *testing.T) {
	buf := make([]byte, 8)
	encodeValues(buf, array.Float64, []float64{math.NaN()})
	if got := decodeValue(buf, array.Float64); !math.IsNaN(got) {
		t.Errorf("NaN round trip = %v", got)
	}
}

func TestCodecLongDoublePaddingZeroed(t *testing.T) {
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	encodeValues(buf, array.LongDouble, []float64{1.0})
	for i := 8; i < 16; i++ {
		if buf[i] != 0 {
			t.Fatalf("padding byte %d = %d, want 0", i, buf[i])
		}
	}
}

func TestCodecInvalidDTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid dtype")
		}
	}()
	encodeValues(make([]byte, 16), array.DType(99), []float64{1})
}
