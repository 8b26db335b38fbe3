package sdf

// Verified recovery (DESIGN.md §13): a SHA-256 Merkle tree over a
// dataset's serving chunks turns every chunk the recovery plane ships
// into a content-addressed, position-bound object. The tree is built
// at debloat time over the ORIGINAL dataset — the bytes an origin
// server will later serve — and its root travels in the debloat
// manifest. A client holding the root can then verify any chunk it
// receives against an O(log n) inclusion proof, so substitution (a
// well-formed frame carrying the wrong chunk's bytes, which CRC32
// framing happily accepts) is rejected before the chunk enters the
// cache, and chunks become safe to serve from untrusted edge caches.
//
// Leaf i hashes the domain-separated tuple (leaf index, clipped chunk
// values):
//
//	leaf_i  = SHA256(0x00 || le64(i) || le64(float64 bits)...)
//	node    = SHA256(0x01 || left || right)
//
// Leaves are the serving chunks in row-major chunk-grid order; an odd
// node at any level is promoted unchanged (no duplication, so a
// repeated-last-leaf second preimage à la CVE-2012-2459 cannot exist).
// Binding the leaf index into the hash means a proof for chunk A can
// never validate a request for chunk B even if an origin echoes A's
// coordinates.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/array"
)

// MerkleAlgo names the one tree construction this package builds and
// verifies. A manifest carrying any other algo string is rejected at
// load time rather than mis-verified.
const MerkleAlgo = "sha256/serving-chunk-v1"

// DefaultServingElems is the serving-chunk volume target for datasets
// stored contiguously: 4096 float64 values ≈ 32 KiB per frame, big
// enough to amortize a round trip and small enough to keep a client
// cache granular. The dataserve origin and the manifest-time tree
// builder share this constant so both derive the same chunk grid.
const DefaultServingElems = 4096

// HashSize is the byte length of every node hash.
const HashSize = sha256.Size

// ServingChunkShape derives a serving chunk shape for a contiguous
// dataset by repeatedly halving the largest extent until the chunk
// volume drops to target elements. The derivation is deterministic, so
// every party — origin server, debloat-time tree builder, verifying
// client — sees the same chunk grid.
func ServingChunkShape(dims []int, target int64) []int {
	chunk := append([]int(nil), dims...)
	vol := int64(1)
	for _, d := range chunk {
		vol *= int64(d)
	}
	for vol > target {
		k := 0
		for i, c := range chunk {
			if c > chunk[k] {
				k = i
			}
		}
		if chunk[k] <= 1 {
			break
		}
		vol /= int64(chunk[k])
		chunk[k] = (chunk[k] + 1) / 2
		vol *= int64(chunk[k])
	}
	return chunk
}

// ServingChunk returns the serving chunk shape of a dataset: its
// storage chunk shape when chunked, otherwise the deterministic
// derived shape.
func ServingChunk(ds *Dataset) []int {
	if c := ds.ChunkShape(); c != nil {
		return c
	}
	return ServingChunkShape(ds.Space().Dims(), DefaultServingElems)
}

// ChunkSlab returns the start/count of serving chunk cc clipped to the
// dataset space (edge chunks shrink instead of padding, so a serving
// frame — and a Merkle leaf — carries logical elements only).
func ChunkSlab(space array.Space, chunk []int, cc []int) (start, count []int) {
	start = make([]int, len(cc))
	count = make([]int, len(cc))
	for k := range cc {
		start[k] = cc[k] * chunk[k]
		count[k] = chunk[k]
		if start[k]+count[k] > space.Dim(k) {
			count[k] = space.Dim(k) - start[k]
		}
	}
	return start, count
}

// ChunkOffset returns the row-major linear id of the serving chunk
// holding ix and ix's row-major offset among that chunk's values, the
// chunk clipped to the space as ChunkSlab clips it, in one pass over
// the coordinates and without allocating.
func ChunkOffset(space array.Space, chunk []int, ix array.Index) (leaf int64, off int, err error) {
	if !space.Contains(ix) {
		return 0, 0, fmt.Errorf("array: index %v out of bounds", ix)
	}
	for k, v := range ix {
		c, dim := chunk[k], space.Dim(k)
		start := v / c * c
		leaf = leaf*int64((dim+c-1)/c) + int64(v/c)
		off = off*min(c, dim-start) + v - start
	}
	return leaf, off, nil
}

// ChunkLeafHash hashes one serving chunk's clipped values as Merkle
// leaf number leaf. The leaf index inside the preimage position-binds
// the content: identical values stored at two different chunk
// coordinates still produce distinct leaves.
func ChunkLeafHash(leaf int64, vals []float64) [HashSize]byte {
	lh := leafHasher{block: make([]byte, 0, min(leafBlock, 9+8*len(vals)))}
	return lh.sum(leaf, vals)
}

// leafBlock is the most preimage bytes a leaf hash hands SHA-256 per
// write.
const leafBlock = 4096

// leafHasher hashes Merkle leaves through one SHA-256 state and one
// block buffer, reused from leaf to leaf.
type leafHasher struct {
	h     hash.Hash
	block []byte
}

// sum returns leaf number leaf's hash over vals, writing the preimage
// in blocks of up to leafBlock bytes.
func (lh *leafHasher) sum(leaf int64, vals []float64) [HashSize]byte {
	if lh.h == nil {
		lh.h = sha256.New()
	}
	lh.h.Reset()
	b := append(lh.block[:0], 0x00)
	b = binary.LittleEndian.AppendUint64(b, uint64(leaf))
	for _, v := range vals {
		if len(b)+8 > leafBlock {
			lh.h.Write(b)
			b = b[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	lh.h.Write(b)
	lh.block = b
	var out [HashSize]byte
	lh.h.Sum(out[:0])
	return out
}

// nodeHash combines two child hashes into their parent.
func nodeHash(left, right [HashSize]byte) [HashSize]byte {
	var pre [1 + 2*HashSize]byte
	pre[0] = 0x01
	copy(pre[1:], left[:])
	copy(pre[1+HashSize:], right[:])
	return sha256.Sum256(pre[:])
}

// MerkleTree is the full tree over one dataset's serving chunks,
// retained level by level so inclusion proofs are O(log n) slice
// copies. The origin server holds one per dataset; clients only ever
// hold the root.
type MerkleTree struct {
	chunk  []int
	levels [][][HashSize]byte // levels[0] = leaves, last level = [root]
}

// BuildDatasetMerkle reads every serving chunk of ds (in row-major
// chunk-grid order, clipped at the edges exactly as the recovery plane
// serves them) and builds the tree. One value slice, read buffer and
// hash state serve every leaf. The chunk shape must be the dataset's
// serving shape — pass sdf.ServingChunk(ds) unless a specific grid is
// under test.
func BuildDatasetMerkle(ds *Dataset, chunk []int) (*MerkleTree, error) {
	space := ds.Space()
	grid, err := array.NewChunkedLayout(space, ds.DType(), chunk)
	if err != nil {
		return nil, fmt.Errorf("sdf: merkle chunk grid: %w", err)
	}
	n := grid.NumChunks()
	leaves := make([][HashSize]byte, 0, n)
	gridSpace := grid.Grid()
	r := slabReader{d: ds}
	var lh leafHasher
	var vals []float64
	for lin := int64(0); lin < n; lin++ {
		cc, err := gridSpace.Unlinear(lin)
		if err != nil {
			return nil, err
		}
		start, count := ChunkSlab(space, chunk, cc)
		if vals, err = r.read(Slab(start, count), vals); err != nil {
			return nil, fmt.Errorf("sdf: merkle leaf %d (chunk %v): %w", lin, cc, err)
		}
		leaves = append(leaves, lh.sum(lin, vals))
	}
	return NewMerkleTree(chunk, leaves), nil
}

// NewMerkleTree folds precomputed leaves into a tree. Exposed for
// tests and for servers that hash chunks through another path.
func NewMerkleTree(chunk []int, leaves [][HashSize]byte) *MerkleTree {
	t := &MerkleTree{chunk: append([]int(nil), chunk...)}
	level := append([][HashSize]byte(nil), leaves...)
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([][HashSize]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				// Odd node: promote unchanged.
				next = append(next, level[i])
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// Leaves returns the leaf count.
func (t *MerkleTree) Leaves() int64 { return int64(len(t.levels[0])) }

// Chunk returns the serving chunk shape the tree was built over.
func (t *MerkleTree) Chunk() []int { return append([]int(nil), t.chunk...) }

// Root returns the tree root. A zero-leaf tree has no root to anchor
// trust on; callers reject empty datasets before building.
func (t *MerkleTree) Root() [HashSize]byte {
	if len(t.levels[0]) == 0 {
		return [HashSize]byte{}
	}
	return t.levels[len(t.levels)-1][0]
}

// Proof returns the inclusion proof of leaf: the sibling hash at each
// level from the leaves up, skipping levels where the node is an
// unpaired (promoted) last node. VerifyChunkProof consumes it with the
// same skip rule, so proof length is a deterministic function of
// (leaves, leaf).
func (t *MerkleTree) Proof(leaf int64) ([][HashSize]byte, error) {
	if leaf < 0 || leaf >= t.Leaves() {
		return nil, fmt.Errorf("sdf: merkle proof: leaf %d outside [0,%d)", leaf, t.Leaves())
	}
	var proof [][HashSize]byte
	idx := int(leaf)
	for _, level := range t.levels[:len(t.levels)-1] {
		sib := idx ^ 1
		if sib < len(level) {
			proof = append(proof, level[sib])
		}
		idx >>= 1
	}
	return proof, nil
}

// VerifyChunkProof folds leafHash up through proof and reports whether
// it lands on root. leaves is the tree's total leaf count and leaf the
// index being proven — both come from the verifier's own trusted
// geometry (manifest dims/chunk), never from the wire. Extra,
// missing, or reordered siblings all fail: the fold consumes the proof
// exactly and any deviation lands off-root.
func VerifyChunkProof(root [HashSize]byte, leaves, leaf int64, leafHash [HashSize]byte, proof [][HashSize]byte) bool {
	if leaf < 0 || leaf >= leaves || leaves <= 0 {
		return false
	}
	h := leafHash
	idx := leaf
	levelSize := leaves
	pi := 0
	for levelSize > 1 {
		if idx == levelSize-1 && levelSize%2 == 1 {
			// Unpaired last node: promoted unchanged, no sibling.
		} else {
			if pi >= len(proof) {
				return false
			}
			if idx%2 == 0 {
				h = nodeHash(h, proof[pi])
			} else {
				h = nodeHash(proof[pi], h)
			}
			pi++
		}
		idx >>= 1
		levelSize = (levelSize + 1) / 2
	}
	return pi == len(proof) && h == root
}

// MerkleSpec is a client's trusted description of one dataset's tree:
// everything needed to verify proofs without trusting the origin for
// geometry. It is the parsed form of the manifest's merkle section.
type MerkleSpec struct {
	// Algo must be MerkleAlgo.
	Algo string
	// Root anchors trust.
	Root [HashSize]byte
	// Leaves is the tree's leaf (serving chunk) count.
	Leaves int64
	// Dims and Chunk pin the serving geometry: a verifying client
	// cross-checks the origin's advertised /meta against these before
	// trusting any chunk-coordinate arithmetic.
	Dims  []int
	Chunk []int
}

// SpecOf describes a built tree over a dataset as a MerkleSpec.
func (t *MerkleTree) SpecOf(ds *Dataset) MerkleSpec {
	return MerkleSpec{
		Algo:   MerkleAlgo,
		Root:   t.Root(),
		Leaves: t.Leaves(),
		Dims:   ds.Space().Dims(),
		Chunk:  t.Chunk(),
	}
}

// RootHex renders the root as lowercase hex (the manifest encoding).
func (s MerkleSpec) RootHex() string { return hex.EncodeToString(s.Root[:]) }

// Validate rejects malformed or internally inconsistent specs before
// any of their fields are trusted: unknown algo, bad root, non-positive
// leaf count, rank mismatches, or a leaf count that disagrees with the
// dims/chunk grid (the "root mismatch at manifest load" class of
// tampering).
func (s MerkleSpec) Validate() error {
	if s.Algo != MerkleAlgo {
		return fmt.Errorf("sdf: merkle spec: unsupported algo %q (want %q)", s.Algo, MerkleAlgo)
	}
	if s.Root == ([HashSize]byte{}) {
		return fmt.Errorf("sdf: merkle spec: zero root")
	}
	if s.Leaves <= 0 {
		return fmt.Errorf("sdf: merkle spec: non-positive leaf count %d", s.Leaves)
	}
	if len(s.Dims) == 0 || len(s.Chunk) != len(s.Dims) {
		return fmt.Errorf("sdf: merkle spec: dims %v / chunk %v rank mismatch", s.Dims, s.Chunk)
	}
	if _, err := array.NewSpace(s.Dims...); err != nil {
		return fmt.Errorf("sdf: merkle spec: %w", err)
	}
	grid := make([]int, len(s.Dims))
	for k, d := range s.Dims {
		if s.Chunk[k] <= 0 {
			return fmt.Errorf("sdf: merkle spec: non-positive chunk extent (chunk %v)", s.Chunk)
		}
		grid[k] = (d-1)/s.Chunk[k] + 1
	}
	gs, err := array.NewSpace(grid...)
	if err != nil {
		return fmt.Errorf("sdf: merkle spec: chunk grid: %w", err)
	}
	if gs.Size() != s.Leaves {
		return fmt.Errorf("sdf: merkle spec: %d leaves but dims %v / chunk %v give %d serving chunks",
			s.Leaves, s.Dims, s.Chunk, gs.Size())
	}
	return nil
}

// MatchesGeometry reports whether an origin's advertised geometry
// agrees with the spec; on disagreement it returns the discrepancy.
// A lying /meta (different dims or chunk grid) would shift every
// chunk-coordinate computation, so a verifying client calls this
// before its first chunk request.
func (s MerkleSpec) MatchesGeometry(dims, chunk []int) error {
	if !equalInts(s.Dims, dims) {
		return fmt.Errorf("sdf: origin advertises dims %v, manifest pinned %v", dims, s.Dims)
	}
	if !equalInts(s.Chunk, chunk) {
		return fmt.Errorf("sdf: origin advertises serving chunk %v, manifest pinned %v", chunk, s.Chunk)
	}
	return nil
}

// ParseMerkleRoot decodes the manifest's hex root encoding.
func ParseMerkleRoot(hexRoot string) ([HashSize]byte, error) {
	var root [HashSize]byte
	raw, err := hex.DecodeString(hexRoot)
	if err != nil {
		return root, fmt.Errorf("sdf: merkle root %q is not hex: %w", hexRoot, err)
	}
	if len(raw) != HashSize {
		return root, fmt.Errorf("sdf: merkle root has %d bytes, want %d", len(raw), HashSize)
	}
	copy(root[:], raw)
	return root, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
