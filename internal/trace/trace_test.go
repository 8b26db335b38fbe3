package trace

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/ioevent"
	"repro/internal/sdf"
)

func writeFile(t *testing.T, space array.Space, chunk []int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("d", space, array.Float64, chunk)
	if err != nil {
		t.Fatal(err)
	}
	err = dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTracedOpenReadClose(t *testing.T) {
	space := array.MustSpace(4, 4)
	path := writeFile(t, space, nil)

	store := ioevent.NewStore()
	tr := NewTracer(store)
	pid := tr.NewProcess()
	tf, err := tr.Open(pid, path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sdf.OpenFrom(tf)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	v, err := ds.ReadElement(array.NewIndex(2, 3))
	if err != nil || v != 11 {
		t.Fatalf("ReadElement = %v, %v", v, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Events: open + (lseek+read)×(header, metadata, element) + close.
	if store.Events() < 5 {
		t.Errorf("Events = %d, want >= 5", store.Events())
	}
	name := filepath.Base(path)
	ranges := store.FileRanges(name)
	if len(ranges) == 0 {
		t.Fatal("no audited ranges")
	}
	// The element's bytes must be covered.
	abs, err := ds.FileOffset(array.NewIndex(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	covered := false
	for _, r := range ranges {
		if r.Start <= abs && abs+8 <= r.End {
			covered = true
		}
	}
	if !covered {
		t.Errorf("element bytes [%d,%d) not covered by %v", abs, abs+8, ranges)
	}
}

func TestReadOnClosedFile(t *testing.T) {
	space := array.MustSpace(2, 2)
	path := writeFile(t, space, nil)
	store := ioevent.NewStore()
	tr := NewTracer(store)
	tf, err := tr.Open(tr.NewProcess(), path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Errorf("second Close should be a no-op, got %v", err)
	}
	buf := make([]byte, 4)
	if _, err := tf.ReadAt(buf, 0); err == nil {
		t.Error("ReadAt after Close should error")
	}
}

func TestTeeLogCapturesEventStream(t *testing.T) {
	space := array.MustSpace(4, 4)
	path := writeFile(t, space, nil)
	store := ioevent.NewStore()
	tr := NewTracer(store)

	var buf bytes.Buffer
	lw := ioevent.NewLogWriter(&buf)
	tr.TeeLog(lw)

	tf, err := tr.Open(tr.NewProcess(), path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sdf.OpenFrom(tf)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := f.Dataset("d")
	if _, err := ds.ReadElement(array.NewIndex(1, 1)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	// Replaying the log must reproduce the live store exactly.
	replayed := ioevent.NewStore()
	if err := ioevent.Replay(bytes.NewReader(buf.Bytes()), replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.Events() != store.Events() {
		t.Errorf("replayed %d events, live store has %d", replayed.Events(), store.Events())
	}
	name := filepath.Base(path)
	a, b := store.FileRanges(name), replayed.FileRanges(name)
	if len(a) != len(b) {
		t.Fatalf("range counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("range %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// A traced file is an io.ReaderAt, so reads may run in parallel; with a
// log attached, every event the store counts must still reach the log
// whole, and the store's readers may look while the file is still being
// read. Under -race this also checks the appends are serialized and
// the file's record is read under its lock.
func TestTeeLogConcurrentReads(t *testing.T) {
	path := writeFile(t, array.MustSpace(8, 8), nil)
	store := ioevent.NewStore()
	tr := NewTracer(store)
	var buf bytes.Buffer
	lw := ioevent.NewLogWriter(&buf)
	tr.TeeLog(lw)
	tf, err := tr.Open(tr.NewProcess(), path)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(path)
	const readers, reads = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := make([]byte, 8)
			for i := 0; i < reads; i++ {
				if _, err := tf.ReadAt(p, int64(8*(g*reads+i)%512)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	looked := make(chan struct{})
	go func() {
		defer close(looked)
		// Counts only grow while the readers run.
		for last := int64(0); ; {
			n := store.Events()
			if n < last {
				t.Errorf("Events fell from %d to %d", last, n)
			}
			last = n
			store.FileRanges(name)
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	<-looked
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := int64(1 + 2*readers*reads + 1); store.Events() != want {
		t.Fatalf("store counted %d events, want %d", store.Events(), want)
	}
	replayed := ioevent.NewStore()
	if err := ioevent.Replay(bytes.NewReader(buf.Bytes()), replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.Events() != store.Events() {
		t.Errorf("log holds %d events, store counted %d", replayed.Events(), store.Events())
	}
	if a, b := store.FileRanges(name), replayed.FileRanges(name); !reflect.DeepEqual(a, b) {
		t.Errorf("replayed ranges %v, live %v", b, a)
	}
}

func TestNewProcessUnique(t *testing.T) {
	tr := NewTracer(ioevent.NewStore())
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		pid := tr.NewProcess()
		if seen[pid] {
			t.Fatalf("pid %d repeated", pid)
		}
		seen[pid] = true
	}
}

func TestResolveIndicesContiguous(t *testing.T) {
	space := array.MustSpace(4, 4)
	path := writeFile(t, space, nil)
	f, err := sdf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("d")

	// Audit exactly elements (1,0)..(1,3): one row = 32 bytes.
	rowStart, err := ds.FileOffset(array.NewIndex(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	set, err := ResolveIndices(ds, []ioevent.Interval{{Start: rowStart, End: rowStart + 32}})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 4 {
		t.Fatalf("resolved %d indices, want 4", set.Len())
	}
	for c := 0; c < 4; c++ {
		if !set.Contains(array.NewIndex(1, c)) {
			t.Errorf("missing index (1,%d)", c)
		}
	}
}

func TestResolveIndicesPartialElement(t *testing.T) {
	space := array.MustSpace(4, 4)
	path := writeFile(t, space, nil)
	f, err := sdf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("d")
	abs, _ := ds.FileOffset(array.NewIndex(0, 2))
	// Touch only 1 byte in the middle of the element.
	set, err := ResolveIndices(ds, []ioevent.Interval{{Start: abs + 3, End: abs + 4}})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 || !set.Contains(array.NewIndex(0, 2)) {
		t.Errorf("partial element not resolved: len=%d", set.Len())
	}
}

func TestResolveIndicesIgnoresHeader(t *testing.T) {
	space := array.MustSpace(4, 4)
	path := writeFile(t, space, nil)
	f, err := sdf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("d")
	// A range entirely inside the header/metadata area.
	set, err := ResolveIndices(ds, []ioevent.Interval{{Start: 0, End: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 0 {
		t.Errorf("header bytes resolved to %d indices", set.Len())
	}
}

func TestResolveIndicesChunked(t *testing.T) {
	space := array.MustSpace(6, 6)
	path := writeFile(t, space, []int{3, 3})
	f, err := sdf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("d")

	// Full end-to-end: audited read of a hyperslab crossing chunks.
	store := ioevent.NewStore()
	tr := NewTracer(store)
	tf, err := tr.Open(tr.NewProcess(), path)
	if err != nil {
		t.Fatal(err)
	}
	af, err := sdf.OpenFrom(tf)
	if err != nil {
		t.Fatal(err)
	}
	ads, _ := af.Dataset("d")
	if _, err := ads.ReadHyperslab(sdf.Slab([]int{2, 2}, []int{2, 2})); err != nil {
		t.Fatal(err)
	}
	af.Close()

	set, err := AccessedIndices(store, filepath.Base(path), ds)
	if err != nil {
		t.Fatal(err)
	}
	want := []array.Index{
		array.NewIndex(2, 2), array.NewIndex(2, 3),
		array.NewIndex(3, 2), array.NewIndex(3, 3),
	}
	for _, ix := range want {
		if !set.Contains(ix) {
			t.Errorf("missing %v", ix)
		}
	}
	if set.Len() != len(want) {
		t.Errorf("resolved %d indices, want %d: over-approximation", set.Len(), len(want))
	}
}
