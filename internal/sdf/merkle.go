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

	"repro/internal/array"
)

// MerkleAlgo names the one tree construction this package builds and
// verifies. A manifest carrying any other algo string is rejected at
// load time rather than mis-verified.
const MerkleAlgo = "sha256/serving-chunk-v1"

// DefaultServingElems is the serving-chunk volume target for datasets
// stored contiguously: 4096 float64 values ≈ 32 KiB per frame, big
// enough to amortize a round trip and small enough to keep a client
// cache granular. ServingChunk derives every contiguous dataset's grid
// from it, so the dataserve origin and the manifest-time tree builder
// derive the same one.
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
// coordinates still produce distinct leaves. A verifying client hashes
// the decoded values of a chunk frame with it.
func ChunkLeafHash(leaf int64, vals []float64) [HashSize]byte {
	var lh leafHasher
	lh.begin(leaf)
	lh.writeValues(vals)
	return lh.sum()
}

// leafBlock is the most transcoded preimage bytes a leaf hash hands
// SHA-256 per write.
const leafBlock = 4096

// leafHasher hashes Merkle leaves through one SHA-256 state and one
// block buffer, reused from leaf to leaf. The Merkle build hands it a
// leaf's elements as stored, of type dt, and it hashes their values'
// float64 bits: the bytes themselves for float64, the low 8 bytes of
// each long double, and for float32 and the integer types the bits of
// the value decodeValues gives, so every dtype hashes the preimage
// ChunkLeafHash hashes for the decoded values.
type leafHasher struct {
	h     hash.Hash
	dt    array.DType
	block []byte    // transcoded preimage bytes
	vals  []float64 // decoded float32 and integer values
}

// begin starts the hash of leaf number leaf: 0x00 || le64(leaf).
func (lh *leafHasher) begin(leaf int64) {
	if lh.h == nil {
		lh.h = sha256.New()
	}
	lh.h.Reset()
	var pre [9]byte
	binary.LittleEndian.PutUint64(pre[1:], uint64(leaf))
	lh.h.Write(pre[:])
}

// write adds the whole elements of type dt stored in b to the leaf.
func (lh *leafHasher) write(b []byte) {
	switch lh.dt {
	case array.Float64:
		// The stored bytes are the preimage.
		lh.h.Write(b)
	case array.LongDouble:
		le := binary.LittleEndian
		for len(b) > 0 {
			n := min(len(b)/16, leafBlock/8)
			blk := lh.grow(8 * n)
			for i := range n {
				le.PutUint64(blk[8*i:], le.Uint64(b[16*i:]))
			}
			lh.h.Write(blk)
			b = b[16*n:]
		}
	default:
		size := lh.dt.Size()
		if lh.vals == nil {
			lh.vals = make([]float64, leafBlock/8)
		}
		for len(b) > 0 {
			n := min(len(b)/size, leafBlock/8)
			decodeValues(lh.vals[:n], b, lh.dt)
			lh.writeValues(lh.vals[:n])
			b = b[n*size:]
		}
	}
}

// writeValues adds vals to the leaf as their float64 bits,
// little-endian, a block at a time.
func (lh *leafHasher) writeValues(vals []float64) {
	for len(vals) > 0 {
		n := min(len(vals), leafBlock/8)
		blk := lh.grow(8 * n)
		encodeValues(blk, array.Float64, vals[:n])
		lh.h.Write(blk)
		vals = vals[n:]
	}
}

// grow returns the block buffer resliced to n bytes, reallocated when
// it holds fewer.
func (lh *leafHasher) grow(n int) []byte {
	if cap(lh.block) < n {
		lh.block = make([]byte, n)
	}
	return lh.block[:n]
}

// sum returns the leaf's hash.
func (lh *leafHasher) sum() [HashSize]byte {
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
// serves them) and builds the tree, hashing each leaf from the bytes
// it reads. A chunked dataset's leaf is its stored chunk, read with one
// ReadAt from the first clipped row to the end of the last; a
// contiguous or packed dataset's leaf is the coalesced reads of its
// slab. One read buffer and hash state serve every leaf. chunk must be
// ServingChunk(ds), the one grid a client can verify against; any other
// is rejected.
func BuildDatasetMerkle(ds *Dataset, chunk []int) (*MerkleTree, error) {
	if serving := ServingChunk(ds); !equalInts(chunk, serving) {
		return nil, fmt.Errorf("sdf: merkle chunk %v of %q is not its serving chunk %v", chunk, ds.Name(), serving)
	}
	space := ds.Space()
	grid, err := array.NewChunkedLayout(space, ds.DType(), chunk)
	if err != nil {
		return nil, fmt.Errorf("sdf: merkle chunk grid: %w", err)
	}
	lh := &leafHasher{dt: ds.DType()}
	// hashLeaf adds the values of leaf lin, the slab of count elements
	// along each dimension from start, to the leaf begun in lh.
	var hashLeaf func(lin int64, start, count []int) error
	if ds.chunked != nil {
		hashLeaf = newStoredLeaves(ds, lh).hash
	} else {
		r := slabReader{d: ds, sink: lh.write}
		hashLeaf = func(_ int64, start, count []int) error {
			_, err := r.read(Slab(start, count), nil)
			return err
		}
	}
	// The leaves grow as they are hashed, so a file claiming far more
	// chunks than it holds fails at its first short read having
	// allocated little.
	var leaves [][HashSize]byte
	for lin := int64(0); lin < grid.NumChunks(); lin++ {
		cc, err := grid.Grid().Unlinear(lin)
		if err != nil {
			return nil, err
		}
		start, count := ChunkSlab(space, chunk, cc)
		lh.begin(lin)
		if err := hashLeaf(lin, start, count); err != nil {
			return nil, fmt.Errorf("sdf: merkle leaf %d (chunk %v): %w", lin, cc, err)
		}
		leaves = append(leaves, lh.sum())
	}
	return NewMerkleTree(chunk, leaves), nil
}

// storedLeaves hashes the leaves of a chunked dataset, whose serving
// chunks are its stored chunks, through one read buffer.
type storedLeaves struct {
	d      *Dataset
	lh     *leafHasher
	buf    []byte
	stride []int64 // row-major element strides of a stored chunk
	w      []int   // the current run's place in the clipped chunk
}

// newStoredLeaves returns the leaf hasher of the chunked dataset d,
// which hashes into lh.
func newStoredLeaves(d *Dataset, lh *leafHasher) *storedLeaves {
	shape := d.meta.Chunk
	s := &storedLeaves{d: d, lh: lh, stride: make([]int64, len(shape)), w: make([]int, len(shape))}
	s.stride[len(shape)-1] = 1
	for k := len(shape) - 2; k >= 0; k-- {
		s.stride[k] = s.stride[k+1] * int64(shape[k+1])
	}
	return s
}

// hash adds stored chunk lin, clipped to count elements along each
// dimension from start, to the leaf begun in lh. It reads the chunk
// from its first element to the end of its last clipped row with one
// ReadAt, then hands lh the clipped elements a contiguous run at a
// time; edge padding between runs is read but not hashed.
func (s *storedLeaves) hash(lin int64, start, count []int) error {
	d := s.d
	base := d.meta.ChunkTable[lin]
	if base == missingChunk {
		first, _ := d.space.Linear(start)
		return &missingError{d, first}
	}
	// Past dimension j the chunk is not clipped, so each run spans
	// count[j] steps along j, and the runs step along the dimensions
	// before j. An interior chunk is one run.
	j := len(count) - 1
	for j > 0 && count[j] == d.meta.Chunk[j] {
		j--
	}
	run := int64(count[j]) * s.stride[j]
	span := run
	for k := range j {
		span += int64(count[k]-1) * s.stride[k]
	}
	var err error
	if s.buf, err = readGrowing(d.file.src, s.buf, base, int(span*d.elem)); err != nil {
		return fmt.Errorf("sdf: chunk read of %q: %w", d.meta.Name, err)
	}
	// off is the current run's first element, counted from the chunk's
	// first element.
	clear(s.w)
	var off int64
	for {
		s.lh.write(s.buf[off*d.elem : (off+run)*d.elem])
		// Step like an odometer over the dimensions before j.
		k := j - 1
		for ; k >= 0; k-- {
			s.w[k]++
			off += s.stride[k]
			if s.w[k] < count[k] {
				break
			}
			s.w[k] = 0
			off -= int64(count[k]) * s.stride[k]
		}
		if k < 0 {
			return nil
		}
	}
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
