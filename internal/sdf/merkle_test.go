package sdf

import (
	"os"
	"path/filepath"
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
