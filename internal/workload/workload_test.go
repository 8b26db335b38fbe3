package workload

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/array"
	"repro/internal/sdf"
)

func TestParamRange(t *testing.T) {
	r := ParamRange{Name: "x", Lo: 3, Hi: 7}
	if r.Width() != 5 {
		t.Errorf("Width = %d, want 5", r.Width())
	}
	if !r.Contains(3) || !r.Contains(7) || !r.Contains(6.6) {
		t.Error("Contains misses in-range values")
	}
	if r.Contains(2.4) || r.Contains(7.6) {
		t.Error("Contains accepts out-of-range values")
	}
}

func TestParamSpaceValuationsAndSample(t *testing.T) {
	ps := ParamSpace{{Name: "a", Lo: 0, Hi: 9}, {Name: "b", Lo: 5, Hi: 6}}
	if ps.Valuations() != 20 {
		t.Errorf("Valuations = %d, want 20", ps.Valuations())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v := ps.Sample(rng)
		if !ps.Contains(v) {
			t.Fatalf("Sample produced out-of-space value %v", v)
		}
	}
	if ps.Contains([]float64{1}) {
		t.Error("wrong-arity value contained")
	}
}

func TestParamSpaceClamp(t *testing.T) {
	ps := ParamSpace{{Lo: 0, Hi: 10}, {Lo: -5, Hi: 5}}
	got := ps.Clamp([]float64{-3, 99})
	if got[0] != 0 || got[1] != 5 {
		t.Errorf("Clamp = %v", got)
	}
}

func TestEachValuationLexicographic(t *testing.T) {
	ps := ParamSpace{{Lo: 0, Hi: 1}, {Lo: 10, Hi: 12}}
	var got [][2]int
	ps.EachValuation(func(v []float64) bool {
		got = append(got, [2]int{int(v[0]), int(v[1])})
		return true
	})
	want := [][2]int{{0, 10}, {0, 11}, {0, 12}, {1, 10}, {1, 11}, {1, 12}}
	if len(got) != len(want) {
		t.Fatalf("visited %d valuations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EachValuation order = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	ps.EachValuation(func([]float64) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestVirtualAccessorRecords(t *testing.T) {
	acc := NewVirtualAccessor(array.MustSpace(8, 8))
	if _, err := acc.ReadElement(array.NewIndex(2, 3)); err != nil {
		t.Fatal(err)
	}
	vals, err := acc.ReadSlab([]int{0, 0}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("slab returned %d values", len(vals))
	}
	set := acc.Accessed()
	if set.Len() != 5 {
		t.Errorf("accessed %d indices, want 5", set.Len())
	}
	if !set.Contains(array.NewIndex(2, 3)) || !set.Contains(array.NewIndex(1, 1)) {
		t.Error("recorded set missing expected indices")
	}
	// Out-of-bounds element read errors and records nothing.
	if _, err := acc.ReadElement(array.NewIndex(8, 0)); err == nil {
		t.Error("out-of-bounds ReadElement should error")
	}
	if _, err := acc.ReadSlab([]int{7, 7}, []int{2, 2}); err == nil {
		t.Error("out-of-bounds ReadSlab should error")
	}
	old := acc.ResetAccessed()
	if old.Len() != 5 || acc.Accessed().Len() != 0 {
		t.Error("ResetAccessed did not swap sets")
	}
}

// A file accessor decodes every slab into the one buffer it keeps: a
// smaller slab reuses the larger one's storage, and each read returns
// its own values.
func TestFileAccessorReusesSlabBuffer(t *testing.T) {
	space := array.MustSpace(6, 6)
	path := filepath.Join(t.TempDir(), "acc.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset("d", space, array.LongDouble, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 { return float64(10*ix[0] + ix[1]) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := sdf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := f.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	acc := NewFileAccessor(ds)
	big, err := acc.ReadSlab([]int{1, 1}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != 12 || big[0] != 11 || big[11] != 34 {
		t.Fatalf("3×4 slab = %v", big)
	}
	small, err := acc.ReadSlab([]int{4, 2}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{42, 43, 52, 53}; !slices.Equal(small, want) {
		t.Fatalf("2×2 slab = %v, want %v", small, want)
	}
	if &small[0] != &big[0] {
		t.Error("second slab was decoded into a new buffer")
	}
	if _, err := acc.ReadSlab([]int{5, 5}, []int{2, 2}); err == nil {
		t.Error("out-of-bounds ReadSlab should error")
	}
}

func TestRunOnVirtualUsefulVsNotUseful(t *testing.T) {
	cs := MustCS(2, 32)
	// stepX <= stepY: useful.
	set, err := RunOnVirtual(cs, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if set.Empty() {
		t.Error("valid parameter value accessed nothing")
	}
	// stepX > stepY: the Listing-1 guard fails; not useful.
	set, err = RunOnVirtual(cs, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !set.Empty() {
		t.Error("invalid parameter value accessed data")
	}
	// Outside Θ entirely.
	set, err = RunOnVirtual(cs, []float64{-10, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !set.Empty() {
		t.Error("out-of-Θ value accessed data")
	}
}

func TestCSZeroStepTerminates(t *testing.T) {
	cs := MustCS(2, 32)
	set, err := RunOnVirtual(cs, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// One stencil read: exactly 4 cells.
	if set.Len() != 4 {
		t.Errorf("zero-step run accessed %d cells, want 4", set.Len())
	}
}

func TestCSRunMatchesFigure1(t *testing.T) {
	// The paper's Fig. 1 run stepX=1, stepY=1 on a 10x10 array visits
	// the diagonal 2x2 blocks.
	cs := MustCS(2, 16)
	set, err := RunOnVirtual(cs, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 14; i++ {
		if !set.Contains(array.NewIndex(i, i)) {
			t.Errorf("diagonal cell (%d,%d) not accessed", i, i)
		}
	}
	if set.Contains(array.NewIndex(0, 5)) {
		t.Error("off-diagonal cell unexpectedly accessed")
	}
}

func TestProgramNamesAndMetadata(t *testing.T) {
	progs := All()
	if len(progs) != 11 {
		t.Fatalf("All() returned %d programs, want 11", len(progs))
	}
	wantNames := map[string]bool{
		"CS1": true, "CS2": true, "CS3": true, "CS4": true, "CS5": true,
		"PRL2D": true, "PRL3D": true, "LDC2D": true, "LDC3D": true,
		"RDC2D": true, "RDC3D": true,
	}
	for _, p := range progs {
		if !wantNames[p.Name()] {
			t.Errorf("unexpected program %q", p.Name())
		}
		delete(wantNames, p.Name())
		if p.Description() == "" {
			t.Errorf("%s has no description", p.Name())
		}
		if len(p.Params()) < 2 {
			t.Errorf("%s has %d params", p.Name(), len(p.Params()))
		}
	}
	if len(wantNames) != 0 {
		t.Errorf("missing programs: %v", wantNames)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"CS3", "PRL3D", "ARD", "MSI"} {
		p, err := ByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestCoverageHits(t *testing.T) {
	cs := MustCS(2, 32)
	sink := &recordingCov{}
	acc := NewVirtualAccessor(cs.Space())
	if err := cs.Run([]float64{1, 1}, &Env{Acc: acc, Cov: sink}); err != nil {
		t.Fatal(err)
	}
	if len(sink.edges) == 0 {
		t.Error("no coverage edges recorded")
	}
	// Nil coverage must not panic.
	if err := cs.Run([]float64{1, 1}, &Env{Acc: acc}); err != nil {
		t.Fatal(err)
	}
}

type recordingCov struct {
	edges map[uint32]int
}

func (r *recordingCov) Hit(e uint32) {
	if r.edges == nil {
		r.edges = map[uint32]int{}
	}
	r.edges[e]++
}
