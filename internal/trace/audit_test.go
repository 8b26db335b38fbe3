package trace

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/debloat"
	"repro/internal/ioevent"
	"repro/internal/obs"
	"repro/internal/sdf"
	"repro/internal/workload"
)

// readCorner is a run that reads the element at the origin.
func readCorner(ds *sdf.Dataset) error {
	_, err := ds.ReadElement(make(array.Index, ds.Space().Rank()))
	return err
}

// Audit's event stream is the hand-rolled sequence's: open, the sdf
// header and metadata reads, the run's reads, close.
func TestAuditMatchesHandRolledRun(t *testing.T) {
	space := array.MustSpace(8, 8)
	path := writeFile(t, space, []int{4, 4})
	read := func(ds *sdf.Dataset) error {
		_, err := ds.ReadHyperslab(sdf.Slab([]int{1, 2}, []int{3, 5}))
		return err
	}

	var want bytes.Buffer
	wantStore := ioevent.NewStore()
	tr := NewTracer(wantStore)
	lw := ioevent.NewLogWriter(&want)
	tr.TeeLog(lw)
	tf, err := tr.Open(tr.NewProcess(), path)
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
	if err := read(ds); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wantSet, err := ResolveIndices(ds, wantStore.FileRanges(filepath.Base(path)))
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	store := ioevent.NewStore()
	tr = NewTracer(store)
	lw = ioevent.NewLogWriter(&got)
	tr.TeeLog(lw)
	res, err := Audit(context.Background(), tr, path, "d", read)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("Audit's event log differs from the hand-rolled run's")
	}
	if !res.Indices.Equal(wantSet) || res.Indices.Len() != 15 {
		t.Errorf("Audit resolved %d indices, hand-rolled %d, want 15", res.Indices.Len(), wantSet.Len())
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed = %v", res.Elapsed)
	}
}

// A nil tracer runs the same window untraced and resolves nothing.
func TestAuditUntraced(t *testing.T) {
	path := writeFile(t, array.MustSpace(4, 4), nil)
	ran := false
	res, err := Audit(context.Background(), nil, path, "d", func(ds *sdf.Dataset) error {
		ran = true
		return readCorner(ds)
	})
	if err != nil || !ran {
		t.Fatalf("Audit = %v, ran %v", err, ran)
	}
	if res.Indices != nil || res.Ranges != nil || res.Elapsed <= 0 {
		t.Errorf("untraced result = %+v, want only Elapsed", res)
	}
}

// Every failure closes what Audit opened and returns no result; the
// run's own error comes back unwrapped.
func TestAuditErrorsCloseTheFile(t *testing.T) {
	path := writeFile(t, array.MustSpace(4, 4), nil)
	runErr := errors.New("run failed")
	junk := filepath.Join(t.TempDir(), "junk.sdf")
	if err := os.WriteFile(junk, []byte("not an sdf file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, path, dataset string
		fn                  func(*sdf.Dataset) error
		opens               int // opens, and so closes, in the log
	}{
		{"missing file", filepath.Join(t.TempDir(), "nope.sdf"), "d", readCorner, 0},
		{"bad header", junk, "d", readCorner, 1},
		{"missing dataset", path, "nope", readCorner, 1},
		{"failing run", path, "d", func(*sdf.Dataset) error { return runErr }, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var log bytes.Buffer
			store := ioevent.NewStore()
			tr := NewTracer(store)
			lw := ioevent.NewLogWriter(&log)
			tr.TeeLog(lw)
			res, err := Audit(context.Background(), tr, c.path, c.dataset, c.fn)
			if err == nil || res != nil {
				t.Fatalf("Audit = %v, %v; want an error", res, err)
			}
			if c.name == "failing run" && !errors.Is(err, runErr) {
				t.Errorf("run error came back as %v", err)
			}
			if err := lw.Flush(); err != nil {
				t.Fatal(err)
			}
			var opens, closes int
			if err := ioevent.ReadLog(&log, func(e ioevent.Event) error {
				switch e.Op {
				case ioevent.OpOpen:
					opens++
				case ioevent.OpClose:
					closes++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if opens != c.opens || closes != c.opens {
				t.Errorf("%d opens and %d closes, want %d of each", opens, closes, c.opens)
			}
		})
	}
}

// With a trace attached, Audit emits its three spans.
func TestAuditSpans(t *testing.T) {
	path := writeFile(t, array.MustSpace(4, 4), nil)
	ot := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), ot)
	if _, err := Audit(ctx, NewTracer(ioevent.NewStore()), path, "d", readCorner); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := ot.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trace.open", "trace.run", "trace.resolve"} {
		if !strings.Contains(out.String(), `"`+name+`"`) {
			t.Errorf("trace lacks a %s span", name)
		}
	}
}

// writeProgramFile writes a long-double file for p, contiguous,
// chunked or, from keep, packed, holding each element's linear index.
func writeProgramFile(t *testing.T, path string, p workload.Program, chunk []int, keep *array.IndexSet) {
	t.Helper()
	space := p.Space()
	dst := path
	if keep != nil {
		dst = path + ".origin"
	}
	w := sdf.NewWriter(dst)
	dw, err := w.CreateDataset("data", space, array.LongDouble, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		return
	}
	if _, err := debloat.WritePacked(dst, path, "data", keep); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dst); err != nil {
		t.Fatal(err)
	}
}

// The audited I_v of a run over a real file equals the index set the
// same run touches through the virtual accessor (workload.RunOnVirtual),
// the identity §V-C's offset enumeration rests on. Every program runs
// 20 seeded valuations over a contiguous, a 16-chunked and a packed
// long-double file; the packed file keeps I_Θ, so every valuation's
// reads are present.
func TestAuditedMatchesVirtual(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 39 files of up to 4 MiB")
	}
	ard, err := workload.NewARD(24, 36, 64, 2, 8, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	msi, err := workload.NewMSI(12, 16, 65, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	progs := append(workload.All(), ard, msi)
	for _, p := range progs {
		truth, err := workload.GroundTruth(p)
		if err != nil {
			t.Fatal(err)
		}
		chunk := make([]int, p.Space().Rank())
		for k := range chunk {
			chunk[k] = min(16, p.Space().Dim(k))
		}
		dir := t.TempDir()
		for _, file := range []struct {
			name  string
			chunk []int
			keep  *array.IndexSet
		}{
			{"contiguous", nil, nil},
			{"chunked", chunk, nil},
			{"packed", nil, truth},
		} {
			path := filepath.Join(dir, file.name+".sdf")
			writeProgramFile(t, path, p, file.chunk, file.keep)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 20; i++ {
				v := make([]float64, len(p.Params()))
				for k, r := range p.Params() {
					v[k] = float64(r.Lo + rng.Intn(r.Hi-r.Lo+1))
				}
				want, err := workload.RunOnVirtual(p, v)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Audit(context.Background(), NewTracer(ioevent.NewStore()), path, "data",
					func(ds *sdf.Dataset) error {
						return p.Run(v, &workload.Env{Acc: workload.NewFileAccessor(ds)})
					})
				if err != nil {
					t.Fatalf("%s %s %v: %v", p.Name(), file.name, v, err)
				}
				if !res.Indices.Equal(want) {
					t.Errorf("%s %s %v: audited %d indices, virtual %d", p.Name(), file.name, v,
						res.Indices.Len(), want.Len())
				}
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// runsDigest hashes an index set's runs.
func runsDigest(s *array.IndexSet) string {
	h := sha256.New()
	var b [16]byte
	s.EachRun(func(lo, hi int64) bool {
		binary.LittleEndian.PutUint64(b[:8], uint64(lo))
		binary.LittleEndian.PutUint64(b[8:], uint64(hi))
		h.Write(b[:])
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

// The teed event log and the resolved I_v of three audited runs over a
// 128×128 long-double file in 16×16 chunks are pinned: a change to the
// record path, the sdf open or the slab reads that moved one event or
// one index shows here.
func TestAuditLogGolden(t *testing.T) {
	space := array.MustSpace(128, 128)
	path := filepath.Join(t.TempDir(), "audit.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("data", space, array.LongDouble, []int{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		program    string
		v          []float64
		events     int64
		log, index string
	}{
		{"CS2", []float64{1, 1}, 1022,
			"f3fa78fa8f4b3621c67cdec513d1b09f43225cc1376cc49cd3528bc7f26db8a4",
			"66e3609d1138a462140031f49ce650e40772919602b21488deb6e3b9c176ec3c"},
		{"PRL2D", []float64{100, 90}, 454,
			"c228a79611998c50709c497bab697377ec6c60d3c630a04afd9d8728ea7a1c6e",
			"f69167742c6906522e1363410155c6a39a0c9db9a868f5806dcc5440dd570b00"},
		{"LDC2D", []float64{20, 30}, 166,
			"6c82d25d6d69050cd7546f0e31899c490f96b9216e8eb9db4035cb3bfb569d65",
			"bbe24330eb667adef15bdd557d6b0c9609bf1eca400e7df9579234b194761eea"},
	} {
		p, err := workload.ForSpace(c.program, space.Dims())
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		store := ioevent.NewStore()
		tr := NewTracer(store)
		lw := ioevent.NewLogWriter(&log)
		tr.TeeLog(lw)
		res, err := Audit(context.Background(), tr, path, "data", func(ds *sdf.Dataset) error {
			return p.Run(c.v, &workload.Env{Acc: workload.NewFileAccessor(ds)})
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := lw.Flush(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(log.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.log || store.Events() != c.events {
			t.Errorf("%s %v: log sha256 %s of %d events, want %s of %d", c.program, c.v, got, store.Events(), c.log, c.events)
		}
		if got := runsDigest(res.Indices); got != c.index {
			t.Errorf("%s %v: I_v (%d indices) digest %s, want %s", c.program, c.v, res.Indices.Len(), got, c.index)
		}
	}
}

// Audits on one tracer each resolve only their own run's reads, though
// all of them record into the same store under the same file name.
func TestAuditReusedTracerResolvesOwnRun(t *testing.T) {
	path := writeFile(t, array.MustSpace(8, 8), []int{4, 4})
	tr := NewTracer(ioevent.NewStore())
	for _, ix := range []array.Index{array.NewIndex(0, 0), array.NewIndex(7, 7)} {
		res, err := Audit(context.Background(), tr, path, "d", func(ds *sdf.Dataset) error {
			_, err := ds.ReadElement(ix)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Indices.Len() != 1 || !res.Indices.Contains(ix) {
			t.Errorf("audit reading %v resolved %d indices", ix, res.Indices.Len())
		}
	}
}
