package workload

import (
	"testing"

	"repro/internal/array"
)

// TestAnalyticTruthMatchesExhaustive is the load-bearing correctness
// check of the benchmark suite: for every program claiming a
// closed-form ground truth, the analytic predicate must agree exactly
// with exhaustive enumeration over Θ on a small instance.
func TestAnalyticTruthMatchesExhaustive(t *testing.T) {
	progs := []Program{
		MustCS(1, 24), MustCS(2, 24), MustCS(3, 24), MustCS(4, 24), MustCS(5, 24),
		MustPRL(24, 24), MustPRL(16, 16, 16),
		MustLDC(24, 24), MustRDC(24, 24),
		MustLDC(16, 16, 16), MustRDC(16, 16, 16),
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			at, ok := analyticOf(p)
			if !ok {
				t.Fatalf("%s should have analytic truth", p.Name())
			}
			exact, err := ExhaustiveTruth(p)
			if err != nil {
				t.Fatal(err)
			}
			mismatches := 0
			p.Space().Each(func(ix array.Index) bool {
				a := at.InTruth(ix)
				e := exact.Contains(ix)
				if a != e {
					mismatches++
					if mismatches <= 5 {
						t.Errorf("%s: index %v analytic=%v exhaustive=%v", p.Name(), ix, a, e)
					}
				}
				return true
			})
			if mismatches > 0 {
				t.Fatalf("%s: %d mismatching indices", p.Name(), mismatches)
			}
		})
	}
}

// TestARDMSITruthMatchesExhaustive verifies the two real-application
// models on tiny instances.
func TestARDMSITruthMatchesExhaustive(t *testing.T) {
	ard, err := NewARD(16, 20, 8, 2, 6, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	msi, err := NewMSI(6, 7, 40, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Program{ard, msi} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			at, ok := analyticOf(p)
			if !ok {
				t.Fatal("missing analytic truth")
			}
			exact, err := ExhaustiveTruth(p)
			if err != nil {
				t.Fatal(err)
			}
			p.Space().Each(func(ix array.Index) bool {
				if at.InTruth(ix) != exact.Contains(ix) {
					t.Fatalf("index %v: analytic=%v exhaustive=%v",
						ix, at.InTruth(ix), exact.Contains(ix))
				}
				return true
			})
		})
	}
}

func TestCS3WedgeShape(t *testing.T) {
	cs3 := MustCS(3, 32)
	gt, err := GroundTruth(cs3)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Empty() {
		t.Error("CS3 ground truth empty")
	}
	// Inside the slope-1..2 wedge.
	if !gt.Contains(array.NewIndex(10, 10)) || !gt.Contains(array.NewIndex(10, 19)) {
		t.Error("wedge interior missing from CS3 truth")
	}
	// Below the diagonal and above slope 2 are unreachable (modulo
	// the 2x2 stencil dilation).
	if gt.Contains(array.NewIndex(30, 5)) || gt.Contains(array.NewIndex(5, 30)) {
		t.Error("off-wedge cell present in CS3 truth")
	}
	// The useful fraction of Θ is scale-invariant (the wedge between
	// slopes 1 and 2 covers ~1/4 of the step plane minus the
	// diagonal), which is what makes CS3 the Fig. 11a size-sweep
	// program.
	useful := 0
	cs3.Params().EachValuation(func(v []float64) bool {
		set, err := RunOnVirtual(cs3, v)
		if err != nil {
			t.Fatal(err)
		}
		if !set.Empty() {
			useful++
		}
		return true
	})
	frac := float64(useful) / float64(cs3.Params().Valuations())
	if frac < 0.1 || frac > 0.4 {
		t.Errorf("useful fraction = %.3f, want a size-stable ~0.25", frac)
	}
}

func TestGroundTruthUsesAnalyticPath(t *testing.T) {
	// For a program with analytic truth, GroundTruth must equal the
	// rasterized predicate.
	p := MustLDC(32, 32)
	gt, err := GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	p.Space().Each(func(ix array.Index) bool {
		if p.InTruth(ix) {
			want++
			if !gt.Contains(ix) {
				t.Fatalf("truth missing %v", ix)
			}
		}
		return true
	})
	if gt.Len() != want {
		t.Errorf("truth has %d indices, want %d", gt.Len(), want)
	}
	// LDC over 32x32: two 8x8 corner blocks.
	if want != 128 {
		t.Errorf("LDC2D(32) truth size = %d, want 128", want)
	}
}

func TestPRLHoleExists(t *testing.T) {
	p := MustPRL(32, 32)
	gt, err := GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	// Hole: rows/cols in [2, 14), e.g. (8, 8).
	if gt.Contains(array.NewIndex(8, 8)) {
		t.Error("PRL hole cell (8,8) should be unread")
	}
	if !gt.Contains(array.NewIndex(0, 8)) || !gt.Contains(array.NewIndex(8, 0)) ||
		!gt.Contains(array.NewIndex(31, 31)) || !gt.Contains(array.NewIndex(14, 8)) {
		t.Error("PRL border bands missing")
	}
}

func TestCornerSeparation(t *testing.T) {
	// LDC and RDC regions must be disjoint pairs at opposite corners.
	ldc := MustLDC(32, 32)
	rdc := MustRDC(32, 32)
	if !ldc.InTruth(array.NewIndex(0, 0)) || !ldc.InTruth(array.NewIndex(31, 31)) {
		t.Error("LDC corners wrong")
	}
	if ldc.InTruth(array.NewIndex(0, 31)) || ldc.InTruth(array.NewIndex(31, 0)) {
		t.Error("LDC covers anti-diagonal corners")
	}
	if !rdc.InTruth(array.NewIndex(0, 31)) || !rdc.InTruth(array.NewIndex(31, 0)) {
		t.Error("RDC corners wrong")
	}
	if rdc.InTruth(array.NewIndex(0, 0)) || rdc.InTruth(array.NewIndex(31, 31)) {
		t.Error("RDC covers main-diagonal corners")
	}
	if ldc.InTruth(array.NewIndex(16, 16)) {
		t.Error("center should be unread")
	}
}

// TestCornerInTruthAllocatesNothing: GroundTruth asks InTruth about
// every index of the space, so it must not allocate per call.
func TestCornerInTruthAllocatesNothing(t *testing.T) {
	for _, p := range []*CornerBlocks{MustLDC(32, 32), MustRDC(32, 32), MustLDC(16, 16, 16), MustRDC(16, 16, 16)} {
		ixs := []array.Index{make(array.Index, len(p.dims)), make(array.Index, len(p.dims))}
		for k := range ixs[1] {
			ixs[1][k] = p.dims[k] - 1
		}
		if n := testing.AllocsPerRun(100, func() {
			for _, ix := range ixs {
				p.InTruth(ix)
			}
		}); n != 0 {
			t.Errorf("%s: InTruth allocates %v times per call pair", p.Name(), n)
		}
	}
}

func TestDefaultARDMSIDebloatFractions(t *testing.T) {
	// The analytic kept fractions must match Table III's shape:
	// ARD ≈ 97.2% debloat, MSI ≈ 96.2%.
	ard := DefaultARD()
	ardKept := float64(62*25) / float64(192*288)
	if got := 1 - ardKept; got < 0.97 || got > 0.975 {
		t.Errorf("ARD debloat fraction = %v", got)
	}
	msi := DefaultMSI()
	msiKept := float64(58-39+1) / 520
	if got := 1 - msiKept; got < 0.96 || got > 0.965 {
		t.Errorf("MSI debloat fraction = %v", got)
	}
	// And the programs' truths must realize those fractions.
	for _, c := range []struct {
		p    Program
		want float64
	}{{ard, ardKept}, {msi, msiKept}} {
		gt, err := GroundTruth(c.p)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(gt.Len()) / float64(c.p.Space().Size())
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s kept fraction = %v, want %v", c.p.Name(), got, c.want)
		}
	}
}

func TestNewProgramValidation(t *testing.T) {
	if _, err := NewCS(9, 128); err == nil {
		t.Error("unknown CS variant should error")
	}
	if _, err := NewCS(2, 4); err == nil {
		t.Error("tiny CS extent should error")
	}
	if _, err := NewPRL(128); err == nil {
		t.Error("rank-1 PRL should error")
	}
	if _, err := NewLDC(8, 8, 8, 8); err == nil {
		t.Error("rank-4 LDC should error")
	}
	if _, err := NewARD(10, 10, 10, 5, 20, 1, 2); err == nil {
		t.Error("ARD block exceeding rows should error")
	}
	if _, err := NewMSI(5, 5, 10, 8, 12); err == nil {
		t.Error("MSI range exceeding extent should error")
	}
}
