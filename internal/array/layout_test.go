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
	off, err := l.Offset(NewIndex(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if off != (8+3)*16 {
		t.Errorf("Offset = %d, want %d", off, (8+3)*16)
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
	// Chunks whose element count (2^64) or byte size (2^60 × 16)
	// overflows int64.
	if _, err := NewChunkedLayout(s, Float64, []int{1 << 32, 1 << 32}); err == nil {
		t.Error("chunk element count past int64 should error")
	}
	if _, err := NewChunkedLayout(s, LongDouble, []int{1 << 30, 1 << 30}); err == nil {
		t.Error("chunk byte size past int64 should error")
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

// chunkRuns collects what ChunkRows yields.
func chunkRuns(l *ChunkedLayout, chunk, from, to int64) [][2]int64 {
	var out [][2]int64
	l.ChunkRows(chunk, from, to, func(lo, hi int64) { out = append(out, [2]int64{lo, hi}) })
	return out
}

// Every element's one-element walk, from its Locate position, yields
// exactly its own linear position, and Offset never repeats.
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
		chunk, within, err := l.Locate(ix)
		if err != nil {
			t.Fatal(err)
		}
		lin, _ := s.Linear(ix)
		if got := chunkRuns(l, chunk, within, within+1); len(got) != 1 || got[0] != [2]int64{lin, lin} {
			t.Fatalf("ChunkRows(%d, %d, %d) = %v, want [[%d %d]] for %v", chunk, within, within+1, got, lin, lin, ix)
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
	// Element (0,1) of chunk (0,1) covers logical column 3, which does
	// not exist: it yields nothing.
	if got := chunkRuns(l, 1, 1, 2); got != nil {
		t.Errorf("padding element yields %v", got)
	}
	// Chunk (0,1) whole: column 2 of rows 0 and 1.
	if got := chunkRuns(l, 1, 0, 4); len(got) != 2 || got[0] != [2]int64{2, 2} || got[1] != [2]int64{5, 5} {
		t.Errorf("chunk (0,1) yields %v, want [[2 2] [5 5]]", got)
	}
	// Chunk (1,1) whole: only (2,2); its second row is all padding.
	if got := chunkRuns(l, 3, 0, 4); len(got) != 1 || got[0] != [2]int64{8, 8} {
		t.Errorf("chunk (1,1) yields %v, want [[8 8]]", got)
	}
	// Positions past the chunk and ids past the grid yield nothing.
	if got := chunkRuns(l, 0, 4, 9); got != nil {
		t.Errorf("positions past the chunk yield %v", got)
	}
	if got := chunkRuns(l, 4, 0, 4); got != nil {
		t.Errorf("chunk id past the grid yields %v", got)
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

// Property: for random edge-padded layouts of rank 1 to 4, the walk of
// a random stretch [from, to) of a random chunk yields ascending,
// disjoint runs that hold exactly the elements Locate places in that
// stretch, each run inside one chunk row.
func TestChunkedBijectionProperty(t *testing.T) {
	f := func(rank uint8, ext, shape [4]uint8, pick uint16, from, span uint8) bool {
		r := int(rank%4) + 1
		dims, chunk := make([]int, r), make([]int, r)
		for k := range dims {
			dims[k] = int(ext[k]%6) + 1
			chunk[k] = int(shape[k]%4) + 1
		}
		s := MustSpace(dims...)
		l, err := NewChunkedLayout(s, Int64, chunk)
		if err != nil {
			return false
		}
		c := int64(pick) % l.NumChunks()
		lo := int64(from) % (l.chunkVol + 1)
		hi := lo + int64(span)%(l.chunkVol+2)
		want := map[int64]bool{}
		s.Each(func(ix Index) bool {
			ch, w, _ := l.Locate(ix)
			if ch == c && lo <= w && w < hi {
				lin, _ := s.Linear(ix)
				want[lin] = true
			}
			return true
		})
		var n int
		prev := int64(-1)
		for _, run := range chunkRuns(l, c, lo, hi) {
			if run[0] <= prev || run[1] < run[0] {
				return false
			}
			first, _ := s.Unlinear(run[0])
			last, _ := s.Unlinear(run[1])
			for k := 0; k < r-1; k++ {
				if first[k] != last[k] {
					return false // the run spans two rows
				}
			}
			for lin := run[0]; lin <= run[1]; lin++ {
				if !want[lin] {
					return false
				}
				n++
			}
			prev = run[1]
		}
		return n == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Walking every chunk whole visits each position of the space once:
// the walk is the inverse of Locate over the whole layout.
func TestChunkRowsCoverSpaceOnce(t *testing.T) {
	s := MustSpace(7, 5, 9)
	l, err := NewChunkedLayout(s, Float64, []int{3, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, s.Size())
	for c := int64(0); c < l.NumChunks(); c++ {
		l.ChunkRows(c, 0, l.chunkVol, func(lo, hi int64) {
			for lin := lo; lin <= hi; lin++ {
				seen[lin]++
			}
		})
	}
	for lin, n := range seen {
		if n != 1 {
			t.Fatalf("position %d visited %d times", lin, n)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { l.ChunkRows(5, 0, l.chunkVol, func(int64, int64) {}) }); allocs != 0 {
		t.Errorf("ChunkRows allocates %.1f per walk, want 0", allocs)
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
