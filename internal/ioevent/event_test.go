package ioevent

import (
	"reflect"
	"sync"
	"testing"
)

// TestPaperMergeExample reproduces the worked example of §IV-C: events
// e1(P1,R,0,110), e2(P2,R,70,30), e3(P1,R,130,20), e4(P1,R,90,30)
// result in accessed offsets (0,120) and (130,150).
func TestPaperMergeExample(t *testing.T) {
	s := NewStore()
	file := "d_file"
	events := []Event{
		{ID: ID{PID: 1, File: file}, Op: OpRead, Offset: 0, Size: 110},
		{ID: ID{PID: 2, File: file}, Op: OpRead, Offset: 70, Size: 30},
		{ID: ID{PID: 1, File: file}, Op: OpRead, Offset: 130, Size: 20},
		{ID: ID{PID: 1, File: file}, Op: OpRead, Offset: 90, Size: 30},
	}
	for _, e := range events {
		if err := s.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	got := s.FileRanges(file)
	want := []Interval{{0, 120}, {130, 150}}
	if len(got) != len(want) {
		t.Fatalf("FileRanges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FileRanges = %v, want %v", got, want)
		}
	}

	// Per-process lookup: P1 alone covers (0,120) and (130,150)
	// because e4 bridges 90..120 with e1's 0..110.
	p1 := s.Lookup(ID{PID: 1, File: file})
	if len(p1) != 2 || p1[0] != (Interval{0, 120}) || p1[1] != (Interval{130, 150}) {
		t.Fatalf("P1 ranges = %v", p1)
	}
	p2 := s.Lookup(ID{PID: 2, File: file})
	if len(p2) != 1 || p2[0] != (Interval{70, 100}) {
		t.Fatalf("P2 ranges = %v", p2)
	}
	if s.Events() != 4 {
		t.Errorf("Events = %d, want 4", s.Events())
	}
}

func TestNonAccessOpsAddNoRanges(t *testing.T) {
	s := NewStore()
	id := ID{PID: 1, File: "f"}
	s.Record(Event{ID: id, Op: OpOpen})
	s.Record(Event{ID: id, Op: OpLseek, Offset: 100})
	s.Record(Event{ID: id, Op: OpClose})
	if got := s.Lookup(id); got != nil {
		t.Errorf("non-access ops produced ranges: %v", got)
	}
	if s.Events() != 3 {
		t.Errorf("Events = %d, want 3", s.Events())
	}
}

func TestWriteDetection(t *testing.T) {
	s := NewStore()
	id := ID{PID: 1, File: "f"}
	s.Record(Event{ID: id, Op: OpRead, Offset: 0, Size: 10})
	if len(s.Writes()) != 0 {
		t.Error("reads flagged as writes")
	}
	s.Record(Event{ID: id, Op: OpWrite, Offset: 5, Size: 5})
	w := s.Writes()
	if len(w) != 1 || w[0].Op != OpWrite {
		t.Errorf("Writes = %v", w)
	}
}

func TestStoreFiles(t *testing.T) {
	s := NewStore()
	s.Record(Event{ID: ID{PID: 1, File: "b"}, Op: OpRead, Offset: 0, Size: 1})
	s.Record(Event{ID: ID{PID: 2, File: "a"}, Op: OpRead, Offset: 0, Size: 1})
	s.Record(Event{ID: ID{PID: 3, File: "b"}, Op: OpRead, Offset: 5, Size: 1})
	files := s.Files()
	if len(files) != 2 || files[0] != "a" || files[1] != "b" {
		t.Errorf("Files = %v", files)
	}
}

func TestStoreConcurrentRecord(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Record(Event{
					ID:     ID{PID: pid, File: "f"},
					Op:     OpRead,
					Offset: int64(i * 10),
					Size:   10,
				})
			}
		}(p)
	}
	wg.Wait()
	if s.Events() != 800 {
		t.Errorf("Events = %d, want 800", s.Events())
	}
	// All processes covered the same contiguous kilobyte.
	r := s.FileRanges("f")
	if len(r) != 1 || r[0] != (Interval{0, 1000}) {
		t.Errorf("FileRanges = %v", r)
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpOpen: "open", OpRead: "read", OpLseek: "lseek",
		OpMmap: "mmap", OpWrite: "write", OpClose: "close",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{ID: ID{PID: 7, File: "mnist.h5"}, Op: OpRead, Offset: 16, Size: 128}
	if got := e.String(); got != "e(P7:mnist.h5, read, 16, 128)" {
		t.Errorf("String = %q", got)
	}
}

func TestRecordInvalidRange(t *testing.T) {
	s := NewStore()
	err := s.Record(Event{ID: ID{PID: 1, File: "f"}, Op: OpRead, Offset: 0, Size: 0})
	if err == nil {
		t.Error("zero-size read should error")
	}
}

// SeekRead on a record handed out by File accounts exactly what
// Recording the lseek and read events would: two events per read, one
// when nothing was read, and the same merged ranges.
func TestSeekReadMatchesRecord(t *testing.T) {
	id := ID{PID: 3, File: "f"}
	direct, viaRecord := NewStore(), NewStore()
	rec := viaRecord.File(id)
	if viaRecord.Events() != 0 || viaRecord.Lookup(id) != nil || len(viaRecord.IDs()) != 0 {
		t.Fatal("an unused record counts as an access")
	}
	for _, r := range []struct{ off, n int64 }{{40, 10}, {0, 16}, {100, 0}, {16, 24}, {70, 5}} {
		direct.Record(Event{ID: id, Op: OpLseek, Offset: r.off})
		if r.n > 0 {
			direct.Record(Event{ID: id, Op: OpRead, Offset: r.off, Size: r.n})
		}
		if err := rec.SeekRead(r.off, r.n); err != nil {
			t.Fatal(err)
		}
	}
	if direct.Events() != 9 || viaRecord.Events() != direct.Events() {
		t.Errorf("Events = %d via SeekRead, %d via Record, want 9", viaRecord.Events(), direct.Events())
	}
	want := []Interval{{0, 50}, {70, 75}}
	if got := viaRecord.Lookup(id); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(direct.Lookup(id), want) {
		t.Errorf("Lookup = %v via SeekRead, %v via Record, want %v", got, direct.Lookup(id), want)
	}
	if viaRecord.File(id) != rec {
		t.Error("File handed out a second record for the same pair")
	}
	if err := rec.SeekRead(-8, 8); err == nil {
		t.Error("SeekRead accepted a negative offset")
	}
}

// IDs lists pairs in the order of their first byte access, not the
// order their records were handed out or their first event.
func TestIDsFollowFirstAccess(t *testing.T) {
	s := NewStore()
	p1, p2, p3 := ID{PID: 1, File: "f"}, ID{PID: 2, File: "f"}, ID{PID: 3, File: "g"}
	r1 := s.File(p1)
	s.Record(Event{ID: p2, Op: OpOpen})
	r3 := s.File(p3)
	r3.SeekRead(0, 4)
	s.Record(Event{ID: p2, Op: OpRead, Offset: 8, Size: 4})
	r1.SeekRead(0, 0) // an lseek alone accesses nothing
	r1.SeekRead(2, 2)
	if got, want := s.IDs(), []ID{p3, p2, p1}; !reflect.DeepEqual(got, want) {
		t.Errorf("IDs = %v, want %v", got, want)
	}
	if got := s.Files(); !reflect.DeepEqual(got, []string{"f", "g"}) {
		t.Errorf("Files = %v", got)
	}
}
