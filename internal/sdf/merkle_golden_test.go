package sdf

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/array"
)

// TestMerkleGoldenRoots pins the roots of three fixed datasets. Two
// builds of the same code always agree (TestMerkleDeterministic), so
// only pinned roots catch a change to the leaf preimage, the
// serving-chunk walk or the tree fold — any of which would orphan every
// manifest already written.
func TestMerkleGoldenRoots(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dims  []int
		dt    array.DType
		chunk []int
		fn    func(lin int64) float64
		root  string
	}{
		{
			// Edge chunks along every dimension.
			name: "chunked float64 rank 3", dims: []int{20, 13, 37}, dt: array.Float64, chunk: []int{8, 5, 16},
			fn:   func(lin int64) float64 { return math.Sin(float64(lin)) * 1e3 },
			root: "86790b3d5b95dd0f3d2b937f0e59c21a9679db3672ac3f786be8d8a1e38be2cf",
		},
		{
			// Contiguous, so the serving chunks are derived: 70×48, the
			// last one clipped to 70×46.
			name: "contiguous long double", dims: []int{70, 190}, dt: array.LongDouble, chunk: nil,
			fn:   func(lin int64) float64 { return float64(lin)*0.5 - 3 },
			root: "f8f352b7100470071359e941c0ad1c09a217d207a76de665925740a81413f6a1",
		},
		{
			name: "chunked float32", dims: []int{33, 47}, dt: array.Float32, chunk: []int{10, 10},
			fn:   func(lin int64) float64 { return float64(lin) / 7 },
			root: "9cb8c8c2acf415cb2752dfb893bf4faa6923aa6aa5c96856082195c5f87fc164",
		},
	} {
		space := array.MustSpace(tc.dims...)
		path := writeTestFile(t, "data", space, tc.dt, tc.chunk, func(ix array.Index) float64 {
			lin, _ := space.Linear(ix)
			return tc.fn(lin)
		})
		f, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := f.Dataset("data")
		if err != nil {
			t.Fatal(err)
		}
		tree, err := BuildDatasetMerkle(ds, ServingChunk(ds))
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.SpecOf(ds).RootHex(); got != tc.root {
			t.Errorf("%s: root %s, want %s", tc.name, got, tc.root)
		}
	}
}

// TestChunkLeafHashPreimage checks the block-wise leaf hash against one
// SHA-256 call over the whole preimage 0x00 || le64(leaf) || le64(bits)…
// at lengths around the block boundaries.
func TestChunkLeafHashPreimage(t *testing.T) {
	for _, n := range []int{0, 1, 509, 510, 511, 512, 1022, 1023, 4096, 5000} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)*1.25 - 7
		}
		pre := []byte{0x00}
		pre = binary.LittleEndian.AppendUint64(pre, uint64(n+3))
		for _, v := range vals {
			pre = binary.LittleEndian.AppendUint64(pre, math.Float64bits(v))
		}
		if got, want := ChunkLeafHash(int64(n+3), vals), sha256.Sum256(pre); got != want {
			t.Errorf("%d values: leaf hash %x, want %x", n, got, want)
		}
	}
	// One hasher reused across leaves of different sizes, as the Merkle
	// build reuses it, gives the same hashes.
	var lh leafHasher
	for _, n := range []int{5000, 3, 600, 0} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)
		}
		lh.begin(9)
		lh.writeValues(vals)
		if got, want := lh.sum(), ChunkLeafHash(9, vals); got != want {
			t.Errorf("reused hasher, %d values: %x, want %x", n, got, want)
		}
	}
}
