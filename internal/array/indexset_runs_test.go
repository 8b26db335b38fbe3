package array

import (
	"math/rand"
	"testing"
)

func TestAddRunBasics(t *testing.T) {
	s := NewIndexSet(MustSpace(10, 10))
	added, err := s.AddRun(5, 9)
	if err != nil || added != 5 {
		t.Fatalf("AddRun(5,9) = %d, %v; want 5, nil", added, err)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	// Overlapping re-add covers nothing new.
	if added, _ := s.AddRun(5, 9); added != 0 {
		t.Fatalf("duplicate AddRun added %d", added)
	}
	// Partial overlap counts only the fresh positions.
	if added, _ := s.AddRun(7, 12); added != 3 {
		t.Fatalf("overlapping AddRun added %d, want 3", added)
	}
	// Adjacent runs coalesce.
	if added, _ := s.AddRun(13, 13); added != 1 {
		t.Fatal("adjacent AddRun")
	}
	if s.RunCount() != 1 {
		t.Fatalf("adjacent runs did not coalesce: %d runs", s.RunCount())
	}
	for lin := int64(5); lin <= 13; lin++ {
		if !s.ContainsLinear(lin) {
			t.Fatalf("missing %d", lin)
		}
	}
	if s.ContainsLinear(4) || s.ContainsLinear(14) {
		t.Fatal("contains out-of-run position")
	}
	// Range errors.
	if _, err := s.AddRun(9, 5); err == nil {
		t.Error("inverted run should error")
	}
	if _, err := s.AddRun(-1, 3); err == nil {
		t.Error("negative run should error")
	}
	if _, err := s.AddRun(90, 100); err == nil {
		t.Error("out-of-space run should error")
	}
}

func TestAddRunMergesAcrossExistingRuns(t *testing.T) {
	s := NewIndexSet(MustSpace(100))
	for _, r := range [][2]int64{{0, 2}, {10, 12}, {20, 22}, {40, 42}} {
		if _, err := s.AddRun(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Bridge the middle three groups in one insert.
	added, err := s.AddRun(5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if added != 26-6 {
		t.Fatalf("bridging AddRun added %d", added)
	}
	if s.RunCount() != 3 {
		t.Fatalf("want 3 runs after bridge, got %d", s.RunCount())
	}
	if s.Len() != 3+26+3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestAddLinearOnRunBackend(t *testing.T) {
	s := NewIndexSet(MustSpace(50))
	if _, err := s.AddRun(10, 12); err != nil {
		t.Fatal(err)
	}
	if !s.AddLinear(13) {
		t.Fatal("AddLinear adjacent should add")
	}
	if s.AddLinear(11) {
		t.Fatal("AddLinear inside run should report false")
	}
	if s.AddLinear(50) || s.AddLinear(-1) {
		t.Fatal("out-of-range AddLinear should report false")
	}
	if s.RunCount() != 1 || s.Len() != 4 {
		t.Fatalf("runs=%d len=%d", s.RunCount(), s.Len())
	}
}

// model is the reference an IndexSet is checked against: a plain map
// of linear positions.
type model map[int64]struct{}

func (m model) addRange(lo, hi int64) {
	for lin := lo; lin <= hi; lin++ {
		m[lin] = struct{}{}
	}
}

// randomSet fills a set over sp with a few scattered points and, now
// and then, one run.
func randomSet(rng *rand.Rand, sp Space) (*IndexSet, model) {
	s, m := NewIndexSet(sp), model{}
	size := sp.Size()
	for k, n := 0, rng.Intn(6); k < n; k++ {
		lin := rng.Int63n(size)
		s.AddLinear(lin)
		m.addRange(lin, lin)
	}
	if rng.Intn(3) == 0 {
		lo := rng.Int63n(size)
		hi := lo + rng.Int63n(min(size-lo, 40))
		s.AddRun(lo, hi)
		m.addRange(lo, hi)
	}
	return s, m
}

// checkModel compares every observable of s with the reference m.
func checkModel(t *testing.T, trial int, s *IndexSet, m model) {
	t.Helper()
	size := s.Space().Size()
	if s.Len() != len(m) || s.Empty() != (len(m) == 0) {
		t.Fatalf("trial %d: Len %d, model %d", trial, s.Len(), len(m))
	}
	for lin := int64(0); lin < size; lin++ {
		if _, ok := m[lin]; s.ContainsLinear(lin) != ok {
			t.Fatalf("trial %d: ContainsLinear(%d) = %v, model %v", trial, lin, !ok, ok)
		}
	}
	prev := int64(-1)
	visited := 0
	s.EachLinear(func(lin int64) bool {
		if lin <= prev {
			t.Fatalf("trial %d: EachLinear not ascending: %d after %d", trial, lin, prev)
		}
		prev = lin
		visited++
		return true
	})
	if visited != len(m) {
		t.Fatalf("trial %d: EachLinear visited %d of %d", trial, visited, len(m))
	}
	count := 0
	s.Each(func(ix Index) bool {
		if !s.Contains(ix) {
			t.Fatalf("trial %d: Each yielded non-member %v", trial, ix)
		}
		count++
		return true
	})
	if count != len(m) {
		t.Fatalf("trial %d: Each visited %d of %d", trial, count, len(m))
	}
	// EachRun yields maximal runs: ascending, separated by at least
	// one absent position, covering the set exactly.
	var covered int
	prevHi := int64(-2)
	s.EachRun(func(lo, hi int64) bool {
		if lo > hi || lo <= prevHi+1 {
			t.Fatalf("trial %d: run [%d, %d] after %d is not maximal and ascending", trial, lo, hi, prevHi)
		}
		covered += int(hi - lo + 1)
		prevHi = hi
		return true
	})
	if covered != len(m) {
		t.Fatalf("trial %d: runs cover %d of %d", trial, covered, len(m))
	}
	c := s.Clone()
	if !c.Equal(s) || !s.Equal(c) || c.Len() != s.Len() {
		t.Fatalf("trial %d: Clone not Equal", trial)
	}
	if c.AddLinear(firstAbsent(size, m)) && c.Equal(s) {
		t.Fatalf("trial %d: Equal after growing the clone", trial)
	}
	if s.Len() != len(m) {
		t.Fatalf("trial %d: growing the clone changed the original", trial)
	}
}

// checkDifference compares s.EachRunNotIn(o) with the model difference
// sm \ om: the runs must be ascending, maximal and cover it exactly.
// It also checks that stopping the walk early stops it.
func checkDifference(t *testing.T, trial int, s *IndexSet, sm model, o *IndexSet, om model) {
	t.Helper()
	want := model{}
	for lin := range sm {
		if _, ok := om[lin]; !ok {
			want[lin] = struct{}{}
		}
	}
	got := model{}
	prevHi := int64(-2)
	calls := 0
	s.EachRunNotIn(o, func(lo, hi int64) bool {
		if lo > hi || lo <= prevHi+1 {
			t.Fatalf("trial %d: difference run [%d, %d] after %d is not ascending and maximal", trial, lo, hi, prevHi)
		}
		for lin := lo; lin <= hi; lin++ {
			if _, ok := want[lin]; !ok {
				t.Fatalf("trial %d: difference run [%d, %d] holds %d, which is not in s \\ o", trial, lo, hi, lin)
			}
		}
		prevHi = hi
		calls++
		got.addRange(lo, hi)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("trial %d: difference walk covered %d positions, model %d", trial, len(got), len(want))
	}
	if calls > 1 {
		stopped := 0
		s.EachRunNotIn(o, func(lo, hi int64) bool {
			stopped++
			return false
		})
		if stopped != 1 {
			t.Fatalf("trial %d: difference walk went on after fn returned false (%d calls)", trial, stopped)
		}
	}
}

// firstAbsent returns the smallest position absent from m, or -1 if m is
// full.
func firstAbsent(size int64, m model) int64 {
	for lin := int64(0); lin < size; lin++ {
		if _, ok := m[lin]; !ok {
			return lin
		}
	}
	return -1
}

// TestIndexSetMatchesMapModel drives random Add/AddLinear/AddRun/
// UnionWith/Reset sequences into an IndexSet and a map reference and
// checks Len, ContainsLinear over the whole space, ascending
// EachLinear, maximal EachRun, IntersectLen, the EachRunNotIn
// difference walk both ways, Equal and Clone after every step.
func TestIndexSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sp := MustSpace(16, 16)
	size := sp.Size()
	for trial := 0; trial < 300; trial++ {
		s, m := NewIndexSet(sp), model{}
		for step := 0; step < 2+rng.Intn(14); step++ {
			switch rng.Intn(6) {
			case 0:
				lin := rng.Int63n(size)
				_, had := m[lin]
				if got := s.AddLinear(lin); got == had {
					t.Fatalf("trial %d: AddLinear(%d) = %v with member %v", trial, lin, got, had)
				}
				m.addRange(lin, lin)
			case 1:
				ix := NewIndex(rng.Intn(16), rng.Intn(16))
				lin, _ := sp.Linear(ix)
				_, had := m[lin]
				if got, err := s.Add(ix); err != nil || got == had {
					t.Fatalf("trial %d: Add(%v) = %v, %v with member %v", trial, ix, got, err, had)
				}
				m.addRange(lin, lin)
			case 2:
				lo := rng.Int63n(size)
				hi := lo + rng.Int63n(size-lo)
				before := len(m)
				m.addRange(lo, hi)
				if got, err := s.AddRun(lo, hi); err != nil || got != int64(len(m)-before) {
					t.Fatalf("trial %d: AddRun(%d, %d) = %d, %v; model grew %d", trial, lo, hi, got, err, len(m)-before)
				}
			case 3, 4:
				o, om := randomSet(rng, sp)
				inter := 0
				for lin := range om {
					if _, ok := m[lin]; ok {
						inter++
					}
				}
				if got := s.IntersectLen(o); got != inter || o.IntersectLen(s) != inter {
					t.Fatalf("trial %d: IntersectLen = %d, model %d", trial, got, inter)
				}
				checkDifference(t, trial, o, om, s, m)
				checkDifference(t, trial, s, m, o, om)
				s.UnionWith(o)
				for lin := range om {
					m[lin] = struct{}{}
				}
				checkModel(t, trial, o, om)
			case 5:
				s.Reset()
				m = model{}
			}
			checkModel(t, trial, s, m)
		}
	}
}

// TestUnionWithNewReportsDifference checks the fuzz merge's primitive:
// the ranges UnionWithNew reports are exactly I_v \ IS, ascending and
// maximal, and their lengths sum to the growth of Len. IS is large
// and scattered so the galloping search and the bulk copies between
// touched runs are exercised.
func TestUnionWithNewReportsDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sp := MustSpace(64, 64)
	size := sp.Size()
	for trial := 0; trial < 300; trial++ {
		is, ism := NewIndexSet(sp), model{}
		for k, n := 0, rng.Intn(400); k < n; k++ {
			lo := rng.Int63n(size)
			hi := min(size-1, lo+rng.Int63n(3))
			is.AddRun(lo, hi)
			ism.addRange(lo, hi)
		}
		iv, ivm := NewIndexSet(sp), model{}
		for k, n := 0, 1+rng.Intn(30); k < n; k++ {
			lo := rng.Int63n(size)
			hi := min(size-1, lo+rng.Int63n(12))
			iv.AddRun(lo, hi)
			ivm.addRange(lo, hi)
		}
		want := model{}
		for lin := range ivm {
			if _, ok := ism[lin]; !ok {
				want[lin] = struct{}{}
			}
		}
		before := is.Len()
		var sum int64
		prevHi := int64(-2)
		got := model{}
		added := is.UnionWithNew(iv, func(lo, hi int64) {
			if lo > hi || lo <= prevHi+1 {
				t.Fatalf("trial %d: range [%d, %d] after %d is not ascending and maximal", trial, lo, hi, prevHi)
			}
			prevHi = hi
			sum += hi - lo + 1
			got.addRange(lo, hi)
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: reported %d new positions, want %d", trial, len(got), len(want))
		}
		for lin := range want {
			if _, ok := got[lin]; !ok {
				t.Fatalf("trial %d: new position %d not reported", trial, lin)
			}
		}
		if sum != added || int64(is.Len()-before) != added {
			t.Fatalf("trial %d: reported %d, returned %d, Len grew %d", trial, sum, added, is.Len()-before)
		}
		for lin := range ivm {
			ism[lin] = struct{}{}
		}
		checkModel(t, trial, is, ism)
	}
}

func TestRunBackendUnionIntersect(t *testing.T) {
	sp := MustSpace(40)
	a := NewIndexSet(sp)
	b := NewIndexSet(sp)
	a.AddRun(0, 9)
	a.AddRun(20, 29)
	b.AddRun(5, 24)
	if n := a.IntersectLen(b); n != 10 {
		t.Fatalf("IntersectLen = %d, want 10", n)
	}
	if n := b.IntersectLen(a); n != 10 {
		t.Fatalf("IntersectLen not symmetric: %d", n)
	}
	u := a.Clone()
	u.UnionWith(b)
	if u.Len() != 30 || u.RunCount() != 1 {
		t.Fatalf("union len=%d runs=%d, want 30, 1", u.Len(), u.RunCount())
	}
	if a.Len() != 20 || b.Len() != 20 {
		t.Fatal("union mutated its inputs")
	}
}

func TestResetRetainsBackendAndCapacity(t *testing.T) {
	s := NewIndexSet(MustSpace(100))
	s.AddRun(0, 10)
	s.AddRun(50, 60)
	s.Reset()
	if !s.Empty() || s.Len() != 0 || s.RunCount() != 0 {
		t.Fatal("Reset should empty the set")
	}
	if cap(s.runs) < 2 {
		t.Fatalf("Reset dropped the run buffer (cap %d)", cap(s.runs))
	}
	if s.ContainsLinear(5) {
		t.Fatal("Reset left stale membership")
	}
}

// The scanline rasterizer's emission loop — ascending AddRun calls
// into a warm set — must not allocate per run.
func TestAddRunEmissionZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is skipped in -short (race) runs")
	}
	s := NewIndexSet(MustSpace(1 << 20))
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		for i := int64(0); i < 512; i++ {
			s.AddRun(i*100, i*100+60)
		}
	})
	if allocs != 0 {
		t.Fatalf("AddRun emission loop allocates %.1f per run, want 0", allocs)
	}
}

// Union must reach a zero-allocation steady state: the galloping merge
// reuses the set's retained scratch buffer.
func TestUnionRunsZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is skipped in -short (race) runs")
	}
	sp := MustSpace(1 << 20)
	o := NewIndexSet(sp)
	for i := int64(0); i < 256; i++ {
		o.AddRun(i*1000, i*1000+400)
	}
	s := NewIndexSet(sp)
	seed := NewIndexSet(sp)
	for i := int64(0); i < 256; i++ {
		seed.AddRun(i*1000+500, i*1000+600)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		s.UnionWith(seed)
		s.UnionWith(o)
	})
	if allocs != 0 {
		t.Fatalf("run union allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkAddRunAscending(b *testing.B) {
	s := NewIndexSet(MustSpace(1 << 30))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for r := int64(0); r < 1024; r++ {
			s.AddRun(r*2048, r*2048+1024)
		}
	}
}

func BenchmarkUnionRuns(b *testing.B) {
	sp := MustSpace(1 << 30)
	o := NewIndexSet(sp)
	for i := int64(0); i < 4096; i++ {
		o.AddRun(i*1000, i*1000+400)
	}
	s := NewIndexSet(sp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.UnionWith(o)
	}
}
