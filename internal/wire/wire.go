// Package wire is the shared CRC32 frame codec of Kondo's binary
// protocols. A frame is a fixed 12-byte header followed by the
// payload:
//
//	magic (4 bytes) | count uint32 LE | crc32(payload) uint32 LE | payload
//
// count is the payload length in bytes. The checksum covers the
// payload, so a truncated or corrupted frame is detected before any
// content is trusted. The count limit rejects absurd headers outright,
// and the decoder never allocates more than a small fixed buffer ahead
// of the bytes that have actually arrived, so a hostile header cannot
// force a large allocation either.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// HeaderSize is the fixed frame prefix: magic (4) | count u32 | crc32
// u32 of the payload.
const HeaderSize = 12

// readAhead is the most payload memory Decode commits before the
// bytes arrive; the buffer then grows by doubling as they do.
const readAhead = 64 << 10

// Codec describes one protocol's framing: its magic and the largest
// payload a frame may claim.
type Codec struct {
	// Magic is the 4-byte frame signature.
	Magic string
	// MaxCount bounds the payload bytes a frame may claim.
	MaxCount int64
}

// Encode renders the payload as one frame.
func (c Codec) Encode(payload []byte) []byte {
	buf := make([]byte, HeaderSize+len(payload))
	copy(buf, c.Magic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	copy(buf[HeaderSize:], payload)
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(payload))
	return buf
}

// Decode reads one frame from r and returns its payload. It fails on
// short reads, bad magic, counts above MaxCount, and checksum
// mismatches; unlike DecodeAll it leaves anything after the frame
// unread, so frames can follow one another on a stream.
func (c Codec) Decode(r io.Reader) ([]byte, error) {
	header := make([]byte, HeaderSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("wire: truncated frame header: %w", err)
	}
	if string(header[:4]) != c.Magic {
		return nil, fmt.Errorf("wire: bad frame magic %q", header[:4])
	}
	claimed := int64(binary.LittleEndian.Uint32(header[4:]))
	wantCRC := binary.LittleEndian.Uint32(header[8:])
	if claimed > c.MaxCount {
		return nil, fmt.Errorf("wire: frame claims %d bytes (limit %d)", claimed, c.MaxCount)
	}
	count := int(claimed)
	payload := make([]byte, min(count, readAhead))
	for filled := 0; ; {
		n, err := io.ReadFull(r, payload[filled:])
		filled += n
		if err != nil {
			return nil, fmt.Errorf("wire: truncated frame payload: %w", err)
		}
		if filled == count {
			break
		}
		payload = slices.Grow(payload, min(filled, count-filled))
		payload = payload[:min(2*filled, count)]
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("wire: frame checksum mismatch (got %08x, want %08x)", got, wantCRC)
	}
	return payload, nil
}

// DecodeAll decodes one frame that must be the entirety of r — the
// one-frame-per-HTTP-body contract of the recovery plane. Beyond
// Decode's checks it rejects trailing bytes after the frame.
func (c Codec) DecodeAll(r io.Reader) ([]byte, error) {
	payload, err := c.Decode(r)
	if err != nil {
		return nil, err
	}
	if extra, _ := io.Copy(io.Discard, io.LimitReader(r, 1)); extra != 0 {
		return nil, fmt.Errorf("wire: trailing bytes after %d-byte frame", len(payload))
	}
	return payload, nil
}

// Write encodes the payload and writes the frame to w.
func (c Codec) Write(w io.Writer, payload []byte) error {
	_, err := w.Write(c.Encode(payload))
	return err
}
