package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

var codec = Codec{Magic: "KTST", MaxCount: 1 << 20}

func TestRoundTrip(t *testing.T) {
	// 200000 bytes outgrows the read-ahead buffer, so the payload is
	// assembled over several growth steps.
	for _, payload := range [][]byte{nil, {0x42}, []byte("hello frame"), make([]byte, 4096), bytes.Repeat([]byte{1, 2, 3}, 200000/3)} {
		buf := codec.Encode(payload)
		got, err := codec.Decode(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload round-trip mismatch: %d vs %d bytes", len(got), len(payload))
		}
		if _, err := codec.DecodeAll(bytes.NewReader(buf)); err != nil {
			t.Errorf("DecodeAll: %v", err)
		}
		// A reader that hands out a few bytes at a time assembles the
		// same payload.
		got, err = codec.DecodeAll(&trickle{r: bytes.NewReader(buf), n: 7})
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

func TestStreamedFrames(t *testing.T) {
	// Decode (unlike DecodeAll) must leave the next frame on the
	// stream intact — the TCP lease-protocol contract.
	var stream bytes.Buffer
	if err := codec.Write(&stream, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := codec.Write(&stream, []byte("second!")); err != nil {
		t.Fatal(err)
	}
	a, err := codec.Decode(&stream)
	if err != nil {
		t.Fatal(err)
	}
	b, err := codec.Decode(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != "first" || string(b) != "second!" {
		t.Fatalf("streamed frames decoded as %q, %q", a, b)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := codec.Encode([]byte{1, 2, 3})
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
			_, err := codec.DecodeAll(bytes.NewReader(c.buf))
			if err == nil || !strings.Contains(err.Error(), c.msg) {
				t.Errorf("err = %v, want substring %q", err, c.msg)
			}
		})
	}

	corrupt := append([]byte(nil), good...)
	corrupt[HeaderSize] ^= 0x01
	if _, err := codec.Decode(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted payload err = %v, want checksum mismatch", err)
	}

	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[4:], 1<<30)
	if _, err := codec.Decode(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("huge count err = %v, want limit error", err)
	}
}

// TestHostileCountAllocatesLittle sends a bare header claiming a
// 512 MiB payload (within the codec limit) followed by EOF: the decode
// must fail having allocated only its small read-ahead buffer, not the
// claimed size.
func TestHostileCountAllocatesLittle(t *testing.T) {
	big := Codec{Magic: "KTST", MaxCount: 1 << 29}
	header := make([]byte, HeaderSize)
	copy(header, big.Magic)
	binary.LittleEndian.PutUint32(header[4:], 1<<29)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := big.Decode(bytes.NewReader(header))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated frame payload") {
		t.Fatalf("err = %v, want truncated frame payload", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("hostile header grew TotalAlloc by %d bytes, want < 1 MiB", grew)
	}
}
