package ioevent

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{ID: ID{PID: 1, File: "mnist.sdf"}, Op: OpOpen},
		{ID: ID{PID: 1, File: "mnist.sdf"}, Op: OpLseek, Offset: 16},
		{ID: ID{PID: 1, File: "mnist.sdf"}, Op: OpRead, Offset: 16, Size: 128},
		{ID: ID{PID: 2, File: "fuji.sdf"}, Op: OpRead, Offset: 0, Size: 64},
		{ID: ID{PID: 1, File: "mnist.sdf"}, Op: OpClose},
	}
}

func TestLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	want := sampleEvents()
	for _, e := range want {
		if err := lw.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	var got []Event
	if err := ReadLog(bytes.NewReader(buf.Bytes()), func(e Event) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLogReplayEqualsDirectRecording(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	direct := NewStore()
	for _, e := range sampleEvents() {
		if err := lw.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := direct.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	replayed := NewStore()
	if err := Replay(bytes.NewReader(buf.Bytes()), replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.Events() != direct.Events() {
		t.Errorf("event counts differ: %d vs %d", replayed.Events(), direct.Events())
	}
	for _, file := range direct.Files() {
		a, b := direct.FileRanges(file), replayed.FileRanges(file)
		if len(a) != len(b) {
			t.Fatalf("%s: range counts differ", file)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: range %d differs: %v vs %v", file, i, a[i], b[i])
			}
		}
	}
}

func TestReadLogEmptyAndMalformed(t *testing.T) {
	// Empty input = empty log.
	if err := ReadLog(strings.NewReader(""), func(Event) error { return nil }); err != nil {
		t.Errorf("empty log: %v", err)
	}
	// Wrong magic.
	if err := ReadLog(strings.NewReader("NOPE"), func(Event) error { return nil }); err == nil {
		t.Error("bad magic should error")
	}
	// Truncated record.
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	if err := lw.Append(sampleEvents()[2]); err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if err := ReadLog(bytes.NewReader(trunc), func(Event) error { return nil }); err == nil {
		t.Error("truncated record should error")
	}
}

func TestLogUnusedWriterWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("unused writer produced %d bytes", buf.Len())
	}
}

// encodeLog returns the log bytes LogWriter produces for events.
func encodeLog(t testing.TB, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	for _, e := range events {
		if err := lw.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A record whose range ends past the largest int64 offset decodes, but
// replaying it fails instead of storing a wrapped-around range.
func TestReplayRejectsOverflowingRange(t *testing.T) {
	log := encodeLog(t, []Event{{ID: ID{PID: 1, File: "f"}, Op: OpRead, Offset: math.MaxInt64 - 5, Size: 10}})
	s := NewStore()
	if err := Replay(bytes.NewReader(log), s); err == nil {
		t.Fatalf("overflowing record replayed into %v", s.FileRanges("f"))
	}
	if r := s.FileRanges("f"); len(r) != 0 {
		t.Errorf("overflowing record stored %v", r)
	}
}

// FuzzReadLog feeds arbitrary bytes to the event-log decoder. Replay
// either fails or leaves a store whose every range is non-empty and
// starts at a non-negative offset, and a log whose records all decode
// re-encodes to the same bytes. The seed corpus under
// testdata/fuzz/FuzzReadLog holds a two-process log, a truncated
// record, bad magic, and a record whose range overflows.
func FuzzReadLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		if err := Replay(bytes.NewReader(data), s); err == nil {
			for _, id := range s.IDs() {
				for _, r := range s.Lookup(id) {
					if r.Start < 0 || r.Start >= r.End {
						t.Fatalf("replay stored range %v for %v", r, id)
					}
				}
			}
		}
		var events []Event
		if err := ReadLog(bytes.NewReader(data), func(e Event) error {
			events = append(events, e)
			return nil
		}); err != nil || len(events) == 0 {
			return
		}
		if got := encodeLog(t, events); !bytes.Equal(got, data) {
			t.Fatalf("%d decoded events re-encode to %d bytes, want the %d read", len(events), len(got), len(data))
		}
	})
}
