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
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/sdf"
)

// The chunk frame's fixed 12-byte header precedes the payload:
//
//	magic "KDB2" | count uint32 LE | crc32(payload) uint32 LE | payload
//
// count is the payload length in bytes. The checksum covers the
// payload, so a truncated or corrupted frame is detected before any
// content is trusted.
const (
	frameMagic      = "KDB2"
	frameHeaderSize = 12
	// frameMaxCount bounds the payload bytes a frame may claim: 512
	// MiB, far above any serving chunk, so an absurd header is rejected
	// outright.
	frameMaxCount = 1 << 29
	// frameReadAhead is the most payload memory decodeFrame commits
	// before the bytes arrive; the buffer then grows by doubling as
	// they do, so a hostile count cannot force a large allocation.
	frameReadAhead = 64 << 10
)

// encodeFrame renders the payload behind the frame header.
func encodeFrame(payload []byte) []byte {
	buf := make([]byte, frameHeaderSize+len(payload))
	copy(buf, frameMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	return buf
}

// decodeFrame reads one frame that must be the entirety of r — one
// frame per HTTP body — and returns its payload. It fails on short
// reads, bad magic, counts above frameMaxCount, checksum mismatches,
// and trailing bytes after the frame.
func decodeFrame(r io.Reader) ([]byte, error) {
	header := make([]byte, frameHeaderSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("dataserve: truncated frame header: %w", err)
	}
	if string(header[:4]) != frameMagic {
		return nil, fmt.Errorf("dataserve: bad frame magic %q", header[:4])
	}
	claimed := int64(binary.LittleEndian.Uint32(header[4:]))
	wantCRC := binary.LittleEndian.Uint32(header[8:])
	if claimed > frameMaxCount {
		return nil, fmt.Errorf("dataserve: frame claims %d bytes (limit %d)", claimed, frameMaxCount)
	}
	count := int(claimed)
	payload := make([]byte, min(count, frameReadAhead))
	for filled := 0; ; {
		n, err := io.ReadFull(r, payload[filled:])
		filled += n
		if err != nil {
			return nil, fmt.Errorf("dataserve: truncated frame payload: %w", err)
		}
		if filled == count {
			break
		}
		payload = slices.Grow(payload, min(filled, count-filled))
		payload = payload[:min(2*filled, count)]
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("dataserve: frame checksum mismatch (got %08x, want %08x)", got, wantCRC)
	}
	if extra, _ := io.Copy(io.Discard, io.LimitReader(r, 1)); extra != 0 {
		return nil, fmt.Errorf("dataserve: trailing bytes after %d-byte frame", len(payload))
	}
	return payload, nil
}

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
	return encodeFrame(payload), nil
}

// decodeChunkFrame reads one chunk frame that must be the entirety of
// r. It fails on short reads, bad magic, checksum mismatches, unknown
// versions, any structural truncation, and trailing bytes; a frame
// that decodes re-encodes to exactly the same bytes.
func decodeChunkFrame(r io.Reader) (chunkFrame, error) {
	var cf chunkFrame
	payload, err := decodeFrame(r)
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
