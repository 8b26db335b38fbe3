package array

import (
	"testing"
	"testing/quick"
)

func TestDTypeSizes(t *testing.T) {
	cases := []struct {
		dt   DType
		size int
		name string
	}{
		{Float32, 4, "float32"},
		{Float64, 8, "float64"},
		{Int32, 4, "int32"},
		{Int64, 8, "int64"},
		{LongDouble, 16, "longdouble"},
	}
	for _, c := range cases {
		if c.dt.Size() != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.dt, c.dt.Size(), c.size)
		}
		if c.dt.String() != c.name {
			t.Errorf("String = %q, want %q", c.dt.String(), c.name)
		}
		back, err := ParseDType(c.name)
		if err != nil || back != c.dt {
			t.Errorf("ParseDType(%q) = %v, %v", c.name, back, err)
		}
		if !c.dt.Valid() {
			t.Errorf("%v should be valid", c.dt)
		}
	}
	if _, err := ParseDType("quux"); err == nil {
		t.Error("unknown dtype should error")
	}
	if DType(0).Valid() || DType(99).Valid() {
		t.Error("invalid dtypes reported valid")
	}
}

func TestContiguousLayout(t *testing.T) {
	s := MustSpace(4, 8)
	l := NewContiguousLayout(s, LongDouble)
	if l.DataSize() != 4*8*16 {
		t.Errorf("DataSize = %d", l.DataSize())
	}
	off, err := l.Offset(NewIndex(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if off != (8+3)*16 {
		t.Errorf("Offset = %d, want %d", off, (8+3)*16)
	}
	ix, err := l.IndexAt(off)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Equal(NewIndex(1, 3)) {
		t.Errorf("IndexAt = %v", ix)
	}
	if _, err := l.IndexAt(off + 1); err == nil {
		t.Error("unaligned offset should error")
	}
	if _, err := l.Offset(NewIndex(4, 0)); err == nil {
		t.Error("out-of-bounds Offset should error")
	}
}

func TestChunkedLayoutValidation(t *testing.T) {
	s := MustSpace(10, 10)
	if _, err := NewChunkedLayout(s, Float64, []int{2}); err == nil {
		t.Error("rank mismatch should error")
	}
	if _, err := NewChunkedLayout(s, Float64, []int{0, 2}); err == nil {
		t.Error("zero chunk extent should error")
	}
}

func TestChunkedLayoutExact(t *testing.T) {
	// 4x4 space, 2x2 chunks: 4 chunks of 4 elements each.
	s := MustSpace(4, 4)
	l, err := NewChunkedLayout(s, Float64, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumChunks() != 4 {
		t.Errorf("NumChunks = %d, want 4", l.NumChunks())
	}
	if l.ChunkSizeBytes() != 4*8 {
		t.Errorf("ChunkSizeBytes = %d", l.ChunkSizeBytes())
	}
	// Element (2,1) is in chunk (1,0), within-chunk (0,1):
	// offset = (chunkLin=2)*4 + (withinLin=1) elements.
	off, err := l.Offset(NewIndex(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if off != (2*4+1)*8 {
		t.Errorf("Offset = %d, want %d", off, (2*4+1)*8)
	}
}

func TestChunkedRoundTripAllIndices(t *testing.T) {
	s := MustSpace(5, 7) // deliberately not divisible by chunk shape
	l, err := NewChunkedLayout(s, Float32, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	s.Each(func(ix Index) bool {
		off, err := l.Offset(ix)
		if err != nil {
			t.Fatalf("Offset(%v): %v", ix, err)
		}
		if seen[off] {
			t.Fatalf("offset %d assigned twice", off)
		}
		seen[off] = true
		back, err := l.IndexAt(off)
		if err != nil {
			t.Fatalf("IndexAt(%d): %v", off, err)
		}
		if !back.Equal(ix) {
			t.Fatalf("round trip %v -> %d -> %v", ix, off, back)
		}
		return true
	})
	if int64(len(seen)) != s.Size() {
		t.Errorf("visited %d offsets, want %d", len(seen), s.Size())
	}
}

func TestChunkedEdgePadding(t *testing.T) {
	s := MustSpace(3, 3)
	l, err := NewChunkedLayout(s, Float64, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Chunk grid is 2x2, data region padded to 4 chunks × 4 elements.
	if l.DataSize() != 4*4*8 {
		t.Errorf("DataSize = %d, want %d", l.DataSize(), 4*4*8)
	}
	// Element (0,1) of chunk (0,1) covers logical column 3, which does
	// not exist; its offset must map to a padding error.
	padOff := int64((1*4 + 1) * 8) // chunk 1, within (0,1)
	if _, err := l.IndexAt(padOff); err == nil {
		t.Error("padding offset should not resolve to an index")
	}
}

func TestChunkCoord(t *testing.T) {
	s := MustSpace(10, 10, 10)
	l, err := NewChunkedLayout(s, Float64, []int{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	chunk, within, err := l.ChunkCoord(NewIndex(9, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !chunk.Equal(NewIndex(2, 0, 1)) || !within.Equal(NewIndex(1, 0, 1)) {
		t.Errorf("ChunkCoord = %v, %v", chunk, within)
	}
	if _, _, err := l.ChunkCoord(NewIndex(10, 0, 0)); err == nil {
		t.Error("out-of-bounds ChunkCoord should error")
	}
	lin, err := l.ChunkLinear(chunk)
	if err != nil || lin != 2*9+1 {
		t.Errorf("ChunkLinear = %d, %v; want %d", lin, err, 2*9+1)
	}
}

// Property: chunked Offset is injective and round-trips for random
// valid indices under random chunk shapes.
func TestChunkedBijectionProperty(t *testing.T) {
	f := func(d1, d2, c1, c2, pick uint8) bool {
		s := MustSpace(int(d1%16)+1, int(d2%16)+1)
		l, err := NewChunkedLayout(s, Int64, []int{int(c1%5) + 1, int(c2%5) + 1})
		if err != nil {
			return false
		}
		lin := int64(pick) % s.Size()
		ix, _ := s.Unlinear(lin)
		off, err := l.Offset(ix)
		if err != nil {
			return false
		}
		back, err := l.IndexAt(off)
		return err == nil && back.Equal(ix)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Locate agrees with ChunkCoord and ChunkLinear on every index of an
// edge-padded 3-D layout.
func TestLocateMatchesChunkCoord(t *testing.T) {
	s := MustSpace(7, 5, 9)
	shape := []int{3, 2, 4}
	l, err := NewChunkedLayout(s, Float64, shape)
	if err != nil {
		t.Fatal(err)
	}
	s.Each(func(ix Index) bool {
		chunk, within, err := l.Locate(ix)
		if err != nil {
			t.Fatal(err)
		}
		cc, wc, _ := l.ChunkCoord(ix)
		wantChunk, _ := l.ChunkLinear(cc)
		var wantWithin int64
		for k, v := range wc {
			wantWithin = wantWithin*int64(shape[k]) + int64(v)
		}
		if chunk != wantChunk || within != wantWithin {
			t.Fatalf("Locate(%v) = %d, %d; want %d, %d", ix, chunk, within, wantChunk, wantWithin)
		}
		return true
	})
	if _, _, err := l.Locate(NewIndex(7, 0, 0)); err == nil {
		t.Error("out-of-bounds Locate should error")
	}
}
