package sdf

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/array"
)

// merkleTestFile materializes a chunked 2-D dataset and returns its
// opened dataset handle plus a cleanup.
func merkleTestFile(t *testing.T, dims, chunk []int) *Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.sdf")
	w := NewWriter(path)
	space, err := array.NewSpace(dims...)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := w.CreateDataset("data", space, array.Float64, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)*1.5 + 0.25
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ds, err := f.Dataset("data")
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestMerkleProofsVerify(t *testing.T) {
	// 40x24 over 16x16 chunks → 3x2 grid = 6 leaves, with clipped edge
	// chunks, and an odd level (3 nodes) exercising promotion.
	ds := merkleTestFile(t, []int{40, 24}, []int{16, 16})
	tree, err := BuildDatasetMerkle(ds, ServingChunk(ds))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves() != 6 {
		t.Fatalf("leaves = %d, want 6", tree.Leaves())
	}
	root := tree.Root()
	space := ds.Space()
	chunk := ServingChunk(ds)
	grid, _ := array.NewChunkedLayout(space, ds.DType(), chunk)
	for leaf := int64(0); leaf < tree.Leaves(); leaf++ {
		proof, err := tree.Proof(leaf)
		if err != nil {
			t.Fatal(err)
		}
		cc, _ := grid.Grid().Unlinear(leaf)
		start, count := ChunkSlab(space, chunk, cc)
		vals, err := ds.ReadHyperslab(Slab(start, count))
		if err != nil {
			t.Fatal(err)
		}
		lh := ChunkLeafHash(leaf, vals)
		if !VerifyChunkProof(root, tree.Leaves(), leaf, lh, proof) {
			t.Fatalf("leaf %d: valid proof rejected", leaf)
		}
		// Wrong leaf index: the same proof must not validate another
		// position even with the right bytes.
		other := (leaf + 1) % tree.Leaves()
		if VerifyChunkProof(root, tree.Leaves(), other, lh, proof) {
			t.Fatalf("leaf %d: proof accepted for wrong leaf %d", leaf, other)
		}
		// Tampered value: recompute the leaf over modified bytes.
		tampered := append([]float64(nil), vals...)
		tampered[0] += 1
		if VerifyChunkProof(root, tree.Leaves(), leaf, ChunkLeafHash(leaf, tampered), proof) {
			t.Fatalf("leaf %d: tampered values verified", leaf)
		}
		if len(proof) > 0 {
			// Corrupted sibling.
			bad := append([][HashSize]byte(nil), proof...)
			bad[0][0] ^= 0xff
			if VerifyChunkProof(root, tree.Leaves(), leaf, lh, bad) {
				t.Fatalf("leaf %d: corrupted proof verified", leaf)
			}
			// Truncated proof.
			if VerifyChunkProof(root, tree.Leaves(), leaf, lh, proof[:len(proof)-1]) {
				t.Fatalf("leaf %d: truncated proof verified", leaf)
			}
			// Extra sibling.
			if VerifyChunkProof(root, tree.Leaves(), leaf, lh, append(append([][HashSize]byte(nil), proof...), proof[0])) {
				t.Fatalf("leaf %d: over-long proof verified", leaf)
			}
		}
		if len(proof) > 1 {
			// Reordered siblings.
			swapped := append([][HashSize]byte(nil), proof...)
			swapped[0], swapped[1] = swapped[1], swapped[0]
			if VerifyChunkProof(root, tree.Leaves(), leaf, lh, swapped) {
				t.Fatalf("leaf %d: reordered proof verified", leaf)
			}
		}
	}
}

func TestMerkleLeafIndexBindsPosition(t *testing.T) {
	vals := []float64{1, 2, 3}
	if ChunkLeafHash(0, vals) == ChunkLeafHash(1, vals) {
		t.Fatal("identical values at different leaves hash identically")
	}
}

func TestMerkleDeterministic(t *testing.T) {
	ds := merkleTestFile(t, []int{32, 32}, []int{16, 16})
	a, err := BuildDatasetMerkle(ds, ServingChunk(ds))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildDatasetMerkle(ds, ServingChunk(ds))
	if err != nil {
		t.Fatal(err)
	}
	if a.Root() != b.Root() {
		t.Fatal("two builds over the same dataset disagree on the root")
	}
}

func TestMerkleRootChangesWithOneByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.sdf")
	w := NewWriter(path)
	space, _ := array.NewSpace(32, 32)
	dw, err := w.CreateDataset("data", space, array.Float64, []int{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 { lin, _ := space.Linear(ix); return float64(lin) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rootOf := func() [HashSize]byte {
		f, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ds, err := f.Dataset("data")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := BuildDatasetMerkle(ds, ServingChunk(ds))
		if err != nil {
			t.Fatal(err)
		}
		return tr.Root()
	}
	before := rootOf()
	// Flip one byte near the end of the file — inside the data region.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-9] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if before == rootOf() {
		t.Fatal("root unchanged after flipping a data byte")
	}
}

func TestMerkleSpecValidate(t *testing.T) {
	ds := merkleTestFile(t, []int{40, 24}, []int{16, 16})
	tree, err := BuildDatasetMerkle(ds, ServingChunk(ds))
	if err != nil {
		t.Fatal(err)
	}
	spec := tree.SpecOf(ds)
	if err := spec.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := spec
	bad.Algo = "md5/please-no"
	if bad.Validate() == nil {
		t.Fatal("unknown algo accepted")
	}
	bad = spec
	bad.Leaves = 7
	if bad.Validate() == nil {
		t.Fatal("inconsistent leaf count accepted")
	}
	bad = spec
	bad.Root = [HashSize]byte{}
	if bad.Validate() == nil {
		t.Fatal("zero root accepted")
	}
	bad = spec
	bad.Chunk = []int{16}
	if bad.Validate() == nil {
		t.Fatal("rank mismatch accepted")
	}
	// A grid whose leaf count wraps int64: 3037000500²·4 wraps to
	// 581896768, which once matched a forged leaf count.
	bad = spec
	bad.Dims, bad.Chunk, bad.Leaves = []int{3037000500, 3037000500, 4}, []int{1, 1, 1}, 581896768
	if bad.Validate() == nil {
		t.Fatal("wrapped leaf count accepted")
	}
	if err := spec.MatchesGeometry([]int{40, 24}, []int{16, 16}); err != nil {
		t.Fatalf("matching geometry rejected: %v", err)
	}
	if spec.MatchesGeometry([]int{40, 25}, []int{16, 16}) == nil {
		t.Fatal("lying dims accepted")
	}
	if spec.MatchesGeometry([]int{40, 24}, []int{8, 16}) == nil {
		t.Fatal("lying chunk shape accepted")
	}
	if _, err := ParseMerkleRoot(spec.RootHex()); err != nil {
		t.Fatalf("round-tripped root rejected: %v", err)
	}
	if _, err := ParseMerkleRoot("zz"); err == nil {
		t.Fatal("garbage root hex accepted")
	}
	if _, err := ParseMerkleRoot("abcd"); err == nil {
		t.Fatal("short root accepted")
	}
}

func TestServingChunkSharedDerivation(t *testing.T) {
	// Contiguous dataset: derived shape must match the dataserve
	// derivation contract (halve the largest extent toward the target).
	got := ServingChunkShape([]int{256, 256}, DefaultServingElems)
	want := []int{64, 64}
	if !equalInts(got, want) {
		t.Fatalf("ServingChunkShape(256x256) = %v, want %v", got, want)
	}
}

// TestChunkOffsetMatchesChunkSlab checks ChunkOffset on every index of
// a space with edge chunks along every dimension against ChunkSlab: the
// leaf is the linear id of the chunk holding the index, and the offset
// is the index's row-major place in that chunk's clipped slab.
func TestChunkOffsetMatchesChunkSlab(t *testing.T) {
	space := array.MustSpace(13, 10, 7)
	chunk := []int{4, 3, 5}
	grid, err := array.NewChunkedLayout(space, array.Float64, chunk)
	if err != nil {
		t.Fatal(err)
	}
	space.Each(func(ix array.Index) bool {
		leaf, off, err := ChunkOffset(space, chunk, ix)
		if err != nil {
			t.Fatal(err)
		}
		cc, _ := grid.Grid().Unlinear(leaf)
		start, count := ChunkSlab(space, chunk, cc)
		want := 0
		for k := range ix {
			if ix[k] < start[k] || ix[k] >= start[k]+count[k] {
				t.Fatalf("%v: leaf %d is chunk %v, which does not hold it", ix, leaf, cc)
			}
			want = want*count[k] + ix[k] - start[k]
		}
		if off != want {
			t.Fatalf("%v: offset %d, want %d", ix, off, want)
		}
		return true
	})
	if _, _, err := ChunkOffset(space, chunk, array.NewIndex(13, 0, 0)); err == nil {
		t.Error("ChunkOffset accepted an index outside the space")
	}
}

// merkleFile writes a one-dataset file, its dataset named "d", and
// returns its bytes; omit, when set, carves chunks away first.
func merkleFile(tb testing.TB, space array.Space, dt array.DType, chunk []int, fn func(array.Index) float64, omit func(*DatasetWriter) error) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "m.sdf")
	w := NewWriter(path)
	dw, err := w.CreateDataset("d", space, dt, chunk)
	if err != nil {
		tb.Fatal(err)
	}
	if err := dw.Fill(fn); err != nil {
		tb.Fatal(err)
	}
	if omit != nil {
		if err := omit(dw); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestMerkleLeavesMatchDecodedValues ties the build's leaves, hashed
// from stored bytes, to the preimage a client hashes: for every dtype,
// each leaf equals ChunkLeafHash over the values ReadHyperslab decodes
// from its serving chunk. The chunked cases clip the edge chunks along
// no dimension, each one in turn, and all of them, at ranks 1 to 3; the
// contiguous ones clip their derived serving chunks.
func TestMerkleLeavesMatchDecodedValues(t *testing.T) {
	shapes := []struct{ dims, chunk []int }{
		{[]int{16}, []int{8}},
		{[]int{19}, []int{8}},
		{[]int{8, 12}, []int{4, 6}},
		{[]int{9, 12}, []int{4, 6}},
		{[]int{8, 13}, []int{4, 6}},
		{[]int{9, 13}, []int{4, 6}},
		{[]int{3, 13}, []int{4, 6}}, // one chunk row, shorter than the chunk
		{[]int{6, 8, 10}, []int{3, 4, 5}},
		{[]int{7, 8, 10}, []int{3, 4, 5}},
		{[]int{6, 9, 10}, []int{3, 4, 5}},
		{[]int{6, 8, 11}, []int{3, 4, 5}},
		{[]int{7, 9, 11}, []int{3, 4, 5}},
		{[]int{5000}, nil},       // two 2500-element serving chunks
		{[]int{4099}, nil},       // 2050 and a clipped 2049
		{[]int{70, 190}, nil},    // 70×48, the last clipped to 70×46
		{[]int{9, 40, 50}, nil},  // 9×20×13, clipped along the last
		{[]int{33, 17, 12}, nil}, // 17×17×12, clipped along the first
	}
	for _, dt := range []array.DType{array.Float32, array.Float64, array.Int32, array.Int64, array.LongDouble} {
		for _, sh := range shapes {
			space := array.MustSpace(sh.dims...)
			ds, _ := openRecorded(t, merkleFile(t, space, dt, sh.chunk, func(ix array.Index) float64 {
				lin, _ := space.Linear(ix)
				return float64(lin)/7 - 100
			}, nil))
			chunk := ServingChunk(ds)
			tree, err := BuildDatasetMerkle(ds, chunk)
			if err != nil {
				t.Fatalf("%v %v/%v: %v", dt, sh.dims, chunk, err)
			}
			grid, _ := array.NewChunkedLayout(space, dt, chunk)
			if tree.Leaves() != grid.NumChunks() || tree.Leaves() < 2 {
				t.Fatalf("%v %v/%v: %d leaves, want %d (at least 2)", dt, sh.dims, chunk, tree.Leaves(), grid.NumChunks())
			}
			for leaf := range tree.Leaves() {
				cc, _ := grid.Grid().Unlinear(leaf)
				start, count := ChunkSlab(space, chunk, cc)
				vals, err := ds.ReadHyperslab(Slab(start, count))
				if err != nil {
					t.Fatal(err)
				}
				if tree.levels[0][leaf] != ChunkLeafHash(leaf, vals) {
					t.Fatalf("%v %v/%v: leaf %d (chunk %v) differs from the hash of its decoded values", dt, sh.dims, chunk, leaf, cc)
				}
			}
		}
	}
}

// TestMerkleReadsEachStoredChunkOnce pins a chunked build's I/O: one
// ReadAt per stored chunk, at the chunk's base, from its first element
// to the end of its last clipped row. A chunk larger than 64 KiB is
// read in doubling steps until the buffer holds one, and then with one
// ReadAt too.
func TestMerkleReadsEachStoredChunkOnce(t *testing.T) {
	for _, tc := range []struct {
		dims, chunk []int
		dt          array.DType
		firstReads  []int // the sizes of the first chunk's reads
	}{
		{[]int{20, 13, 37}, []int{8, 5, 16}, array.Float64, []int{8 * 5 * 16 * 8}},
		{[]int{20, 13, 37}, []int{8, 5, 16}, array.LongDouble, []int{8 * 5 * 16 * 16}},
		{[]int{50, 47}, []int{16, 16}, array.Int32, []int{16 * 16 * 4}},
		{[]int{100, 100}, []int{96, 96}, array.Float64, []int{64 << 10, 96*96*8 - 64<<10}},
	} {
		space := array.MustSpace(tc.dims...)
		ds, src := openRecorded(t, merkleFile(t, space, tc.dt, tc.chunk, linValue(space), nil))
		if _, err := BuildDatasetMerkle(ds, ServingChunk(ds)); err != nil {
			t.Fatal(err)
		}
		grid := ds.ChunkLayout()
		var want []readAt
		for lin := range grid.NumChunks() {
			cc, _ := grid.Grid().Unlinear(lin)
			_, count := ChunkSlab(space, tc.chunk, cc)
			// The clipped rows end at the last one's last element.
			last, stride := int64(count[len(count)-1]), int64(1)
			for k := len(count) - 1; k > 0; k-- {
				stride *= int64(tc.chunk[k])
				last += int64(count[k-1]-1) * stride
			}
			base := ds.meta.ChunkTable[lin]
			if lin == 0 {
				for _, n := range tc.firstReads {
					want = append(want, readAt{base, n})
					base += int64(n)
				}
				continue
			}
			want = append(want, readAt{base, int(last * ds.elem)})
		}
		if !slices.Equal(src.reads, want) {
			t.Errorf("%v %v/%v: reads %v, want %v", tc.dt, tc.dims, tc.chunk, src.reads, want)
		}
	}
}

// TestMerkleOverCarvedFileFails: a carved-away chunk has no bytes to
// commit to, so the build fails with ErrDataMissing naming the leaf,
// its chunk and the chunk's first element.
func TestMerkleOverCarvedFileFails(t *testing.T) {
	space := array.MustSpace(8, 10)
	ds, _ := openRecorded(t, merkleFile(t, space, array.Float64, []int{4, 4}, linValue(space), func(dw *DatasetWriter) error {
		return dw.OmitChunksExcept(map[int64]bool{0: true, 1: true, 2: true, 4: true})
	}))
	_, err := BuildDatasetMerkle(ds, ServingChunk(ds))
	if !errors.Is(err, ErrDataMissing) {
		t.Fatalf("err = %v, want ErrDataMissing", err)
	}
	want := `sdf: merkle leaf 3 (chunk [1 0]): sdf: data missing (debloated away): index [4 0] of "d"`
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

// TestMerkleRejectsOtherGrids: a tree over any grid but the serving
// chunk is one no client could verify against, so the build refuses it.
func TestMerkleRejectsOtherGrids(t *testing.T) {
	for _, tc := range []struct{ dims, chunk, grid []int }{
		{[]int{40, 24}, []int{16, 16}, []int{8, 16}},
		{[]int{40, 24}, []int{16, 16}, []int{16}},
		{[]int{256, 256}, nil, []int{32, 32}},
		{[]int{256, 256}, nil, nil},
	} {
		space := array.MustSpace(tc.dims...)
		ds, _ := openRecorded(t, merkleFile(t, space, array.Float64, tc.chunk, linValue(space), nil))
		_, err := BuildDatasetMerkle(ds, tc.grid)
		if err == nil || !strings.Contains(err.Error(), "not its serving chunk") {
			t.Errorf("%v/%v: grid %v: err = %v, want a serving-chunk error", tc.dims, tc.chunk, tc.grid, err)
		}
	}
}

// BenchmarkBuildDatasetMerkle times the Merkle build over a chunked
// float64 dataset with edge chunks along every dimension and over a
// contiguous long-double one, and SHA-256 alone over as many bytes as
// the float64 build's leaves hash. Each reports MB/s of logical
// float64 preimage, so the builds read against the hash's own rate.
func BenchmarkBuildDatasetMerkle(b *testing.B) {
	for _, bc := range []struct {
		name        string
		dims, chunk []int
		dt          array.DType
	}{
		{"chunked-float64", []int{99, 130, 120}, []int{16, 16, 16}, array.Float64},
		{"contiguous-longdouble", []int{256, 384}, nil, array.LongDouble},
	} {
		space := array.MustSpace(bc.dims...)
		path := filepath.Join(b.TempDir(), bc.name+".sdf")
		if err := os.WriteFile(path, merkleFile(b, space, bc.dt, bc.chunk, linValue(space), nil), 0o644); err != nil {
			b.Fatal(err)
		}
		f, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		ds, err := f.Dataset("d")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(8 * space.Size())
			for range b.N {
				if _, err := BuildDatasetMerkle(ds, ServingChunk(ds)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("sha256", func(b *testing.B) {
		buf := make([]byte, 8*99*130*120)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for range b.N {
			benchSum = sha256.Sum256(buf)
		}
	})
}

// benchSum keeps the benchmark's hashes live.
var benchSum [HashSize]byte
