package dataserve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sdf"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, vals := range [][]float64{nil, {1.5}, {0, -3.25, 1e300, 42}} {
		buf, err := encodeChunkFrame(chunkFrame{Dataset: "data", Chunk: []int{1, 0}, Leaf: 2, Leaves: 4, Vals: vals})
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeChunkFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("decode(%v): %v", vals, err)
		}
		if len(got.Vals) != len(vals) || len(got.Proof) != 0 {
			t.Fatalf("decoded %d values, %d proof siblings; want %d, 0", len(got.Vals), len(got.Proof), len(vals))
		}
		for i := range vals {
			if got.Vals[i] != vals[i] {
				t.Errorf("value %d = %v, want %v", i, got.Vals[i], vals[i])
			}
		}
		// A decoded frame re-encodes to the same bytes.
		again, err := encodeChunkFrame(got)
		if err != nil || !bytes.Equal(again, buf) {
			t.Errorf("re-encoding differs (err %v)", err)
		}
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	good, err := encodeChunkFrame(chunkFrame{Dataset: "data", Chunk: []int{0, 1}, Leaf: 1, Leaves: 4, Vals: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// A value count that claims more values than the payload carries,
	// behind a valid checksum: version(1) name(2+4) rank(1) coords(8)
	// leaf(8) leaves(8) put the count at payload offset 32.
	payload, err := decodeFrame(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(payload[32:], 4)
	overcount := encodeFrame(payload)

	cases := []struct {
		name string
		buf  []byte
		msg  string
	}{
		{"empty", nil, "truncated frame header"},
		{"short header", good[:6], "truncated frame header"},
		{"bad magic", append([]byte("XXXX"), good[4:]...), "bad frame magic"},
		{"truncated payload", good[:len(good)-8], "truncated frame payload"},
		{"count mismatch", overcount, "truncated chunk frame"},
		{"trailing bytes", append(append([]byte(nil), good...), 0xFF), "trailing bytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := decodeChunkFrame(bytes.NewReader(c.buf))
			if err == nil || !strings.Contains(err.Error(), c.msg) {
				t.Errorf("err = %v, want substring %q", err, c.msg)
			}
		})
	}

	// Flipped payload bit fails the checksum.
	corrupt := append([]byte(nil), good...)
	corrupt[frameHeaderSize] ^= 0x01
	if _, err := decodeChunkFrame(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted payload err = %v, want checksum mismatch", err)
	}

	// An absurd claimed byte count is rejected before allocation.
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[4:], 1<<30)
	if _, err := decodeChunkFrame(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("huge count err = %v, want limit error", err)
	}
}

// TestFramePayloadRoundTrip: raw payloads survive the frame, and a
// reader that hands out a few bytes at a time assembles the same
// payload. 200000 bytes outgrows the read-ahead buffer, so that
// payload is assembled over several growth steps.
func TestFramePayloadRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {0x42}, []byte("hello frame"), make([]byte, 4096), bytes.Repeat([]byte{1, 2, 3}, 200000/3)} {
		buf := encodeFrame(payload)
		got, err := decodeFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload round-trip mismatch: %d vs %d bytes", len(got), len(payload))
		}
		got, err = decodeFrame(&trickle{r: bytes.NewReader(buf), n: 7})
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("trickled decode of %d bytes: %v", len(payload), err)
		}
	}
}

// trickle returns at most n bytes per Read.
type trickle struct {
	r io.Reader
	n int
}

func (t *trickle) Read(p []byte) (int, error) {
	if len(p) > t.n {
		p = p[:t.n]
	}
	return t.r.Read(p)
}

// TestDecodeErrors checks every framing rejection on a raw payload.
func TestDecodeErrors(t *testing.T) {
	good := encodeFrame([]byte{1, 2, 3})
	// A header whose count disagrees with the payload it fronts: the
	// decoder reads two bytes, whose checksum is not the frame's.
	short := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(short[4:], 2)

	cases := []struct {
		name string
		buf  []byte
		msg  string
	}{
		{"empty", nil, "truncated frame header"},
		{"short header", good[:6], "truncated frame header"},
		{"bad magic", append([]byte("XXXX"), good[4:]...), "bad frame magic"},
		{"truncated payload", good[:len(good)-2], "truncated frame payload"},
		{"count mismatch", short, "checksum mismatch"},
		{"trailing bytes", append(append([]byte(nil), good...), 0xFF), "trailing bytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := decodeFrame(bytes.NewReader(c.buf))
			if err == nil || !strings.Contains(err.Error(), c.msg) {
				t.Errorf("err = %v, want substring %q", err, c.msg)
			}
		})
	}

	corrupt := append([]byte(nil), good...)
	corrupt[frameHeaderSize] ^= 0x01
	if _, err := decodeFrame(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted payload err = %v, want checksum mismatch", err)
	}

	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[4:], frameMaxCount+1)
	if _, err := decodeFrame(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("over-limit count err = %v, want limit error", err)
	}
}

// TestHostileCountAllocatesLittle sends a bare header claiming the
// largest payload the limit allows (512 MiB) followed by EOF: the
// decode must fail having allocated only its small read-ahead buffer,
// not the claimed size.
func TestHostileCountAllocatesLittle(t *testing.T) {
	header := make([]byte, frameHeaderSize)
	copy(header, frameMagic)
	binary.LittleEndian.PutUint32(header[4:], frameMaxCount)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeFrame(bytes.NewReader(header))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated frame payload") {
		t.Fatalf("err = %v, want truncated frame payload", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("hostile header grew TotalAlloc by %d bytes, want < 1 MiB", grew)
	}
}

// FuzzChunkFrame feeds arbitrary bytes to the one chunk-frame decoder:
// it must return an error or a frame that re-encodes to exactly the
// bytes it was given, and never panic.
func FuzzChunkFrame(f *testing.F) {
	proof := make([][sdf.HashSize]byte, 2)
	proof[1][0] = 0xab
	for _, cf := range []chunkFrame{
		{Dataset: "data", Chunk: []int{1, 2}, Leaf: 5, Leaves: 8, Vals: []float64{0.5, -1, math.Inf(1)}, Proof: proof},
		{Dataset: "t+1", Chunk: []int{0}, Leaf: 0, Leaves: 1, Vals: []float64{42}},
	} {
		buf, err := encodeChunkFrame(cf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := decodeChunkFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := encodeChunkFrame(cf)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, data)
		}
	})
}
