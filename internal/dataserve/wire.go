// Package dataserve is the recovery data plane of paper §VI: "a
// container runtime can use audited information to pull missing data
// offsets from a remote server, when requested." One miss recovers the
// whole serving chunk that holds it, so one round trip answers a
// region instead of one element. The same client serves a remote
// origin and a local file (NewLocalFetcher).
//
// Wire protocol (HTTP), served by Server.Handler:
//
//	GET /meta?dataset=<name>                            → JSON dataset geometry + serving chunk shape
//	GET /chunk?dataset=<name>&chunk=c1,c2,...[&proof=1] → chunk frame of one serving chunk
//
// A daemon serves the shared observability endpoints (/metrics,
// /healthz, …) beside them through obs.Endpoints.
//
// Every /chunk answer is one chunk frame (KDB2): the request identity,
// the chunk's Merkle leaf position, its values, and — with proof=1 —
// the inclusion proof, all behind a fixed header (magic, byte count,
// CRC32), so a truncated or corrupted body is detected before any value
// is trusted. JSON error bodies carry {"error": ...}; carved-away data
// at the origin answers with HTTP 410 Gone, which the client maps back
// onto sdf.ErrDataMissing.
package dataserve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/sdf"
	"repro/internal/wire"
)

// chunkCodec is the chunk-frame framing, shared with the other binary
// protocols through internal/wire. The count field counts payload
// bytes; the 1<<29-byte (512 MiB) limit is far above any serving chunk.
var chunkCodec = wire.Codec{Magic: "KDB2", MaxCount: 1 << 29}

// chunkFrameVersion versions the KDB2 payload layout.
const chunkFrameVersion = 1

// chunkFrame is one /chunk response: the request identity (dataset +
// chunk coordinate), the chunk's position in the Merkle tree over the
// serving grid, its clipped values, and the inclusion proof connecting
// them to the manifest root (empty unless the request asked for
// proof=1). Everything sits inside the CRC-verified payload, so the
// identity a client checks is bound to the values it caches.
type chunkFrame struct {
	Dataset string
	Chunk   []int
	Leaf    int64 // row-major chunk-grid index = Merkle leaf index
	Leaves  int64 // chunk count of the serving grid = Merkle leaf count
	Vals    []float64
	Proof   [][sdf.HashSize]byte
}

// encodeChunkFrame renders a chunk frame:
//
//	version u8 | nameLen u16 | name | rank u8 | rank×coord i32 |
//	leaf u64 | leaves u64 | valCount u32 | valCount×float64 bits |
//	proofLen u16 | proofLen×32-byte sibling
//
// all little-endian, all inside the CRC32-covered payload.
func encodeChunkFrame(cf chunkFrame) ([]byte, error) {
	if len(cf.Dataset) > 0xffff {
		return nil, fmt.Errorf("dataserve: dataset name too long for chunk frame (%d bytes)", len(cf.Dataset))
	}
	if len(cf.Chunk) > 0xff {
		return nil, fmt.Errorf("dataserve: rank %d too large for chunk frame", len(cf.Chunk))
	}
	if len(cf.Proof) > 0xffff {
		return nil, fmt.Errorf("dataserve: proof too long (%d siblings)", len(cf.Proof))
	}
	size := 1 + 2 + len(cf.Dataset) + 1 + 4*len(cf.Chunk) + 8 + 8 + 4 + 8*len(cf.Vals) + 2 + sdf.HashSize*len(cf.Proof)
	payload := make([]byte, 0, size)
	payload = append(payload, chunkFrameVersion)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(cf.Dataset)))
	payload = append(payload, cf.Dataset...)
	payload = append(payload, byte(len(cf.Chunk)))
	for _, c := range cf.Chunk {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(int32(c)))
	}
	payload = binary.LittleEndian.AppendUint64(payload, uint64(cf.Leaf))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(cf.Leaves))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(cf.Vals)))
	for _, v := range cf.Vals {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
	}
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(cf.Proof)))
	for _, sib := range cf.Proof {
		payload = append(payload, sib[:]...)
	}
	return chunkCodec.Encode(payload), nil
}

// decodeChunkFrame reads one chunk frame that must be the entirety of
// r. It fails on short reads, bad magic, checksum mismatches, unknown
// versions, any structural truncation, and trailing bytes; a frame
// that decodes re-encodes to exactly the same bytes.
func decodeChunkFrame(r io.Reader) (chunkFrame, error) {
	var cf chunkFrame
	payload, err := chunkCodec.DecodeAll(r)
	if err != nil {
		return cf, err
	}
	cur := payload
	take := func(n int64) ([]byte, error) {
		if int64(len(cur)) < n {
			return nil, fmt.Errorf("dataserve: truncated chunk frame (need %d bytes, have %d)", n, len(cur))
		}
		b := cur[:n]
		cur = cur[n:]
		return b, nil
	}
	b, err := take(1)
	if err != nil {
		return cf, err
	}
	if b[0] != chunkFrameVersion {
		return cf, fmt.Errorf("dataserve: chunk frame version %d unsupported (want %d)", b[0], chunkFrameVersion)
	}
	if b, err = take(2); err != nil {
		return cf, err
	}
	if b, err = take(int64(binary.LittleEndian.Uint16(b))); err != nil {
		return cf, err
	}
	cf.Dataset = string(b)
	if b, err = take(1); err != nil {
		return cf, err
	}
	cf.Chunk = make([]int, b[0])
	for k := range cf.Chunk {
		if b, err = take(4); err != nil {
			return cf, err
		}
		cf.Chunk[k] = int(int32(binary.LittleEndian.Uint32(b)))
	}
	if b, err = take(8); err != nil {
		return cf, err
	}
	cf.Leaf = int64(binary.LittleEndian.Uint64(b))
	if b, err = take(8); err != nil {
		return cf, err
	}
	cf.Leaves = int64(binary.LittleEndian.Uint64(b))
	if b, err = take(4); err != nil {
		return cf, err
	}
	// The value bytes are taken before the slice is made, so a hostile
	// count allocates nothing beyond the payload already read.
	if b, err = take(8 * int64(binary.LittleEndian.Uint32(b))); err != nil {
		return cf, err
	}
	cf.Vals = make([]float64, len(b)/8)
	for i := range cf.Vals {
		cf.Vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	if b, err = take(2); err != nil {
		return cf, err
	}
	if b, err = take(sdf.HashSize * int64(binary.LittleEndian.Uint16(b))); err != nil {
		return cf, err
	}
	cf.Proof = make([][sdf.HashSize]byte, len(b)/sdf.HashSize)
	for i := range cf.Proof {
		copy(cf.Proof[i][:], b[sdf.HashSize*i:])
	}
	if len(cur) != 0 {
		return cf, fmt.Errorf("dataserve: chunk frame has %d trailing bytes", len(cur))
	}
	return cf, nil
}
