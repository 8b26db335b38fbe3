package ioevent

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// covered returns how many bytes s's ranges cover.
func covered(s *IntervalSet) int64 {
	var n int64
	for _, r := range s.Ranges() {
		n += r.Len()
	}
	return n
}

func TestIntervalSetMergeSemantics(t *testing.T) {
	s := NewIntervalSet()
	mustAdd := func(start, size int64) {
		t.Helper()
		if err := s.AddRun(start, size); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 10)
	mustAdd(20, 10)
	if len(s.Ranges()) != 2 || covered(s) != 20 {
		t.Fatalf("ranges %v", s.Ranges())
	}
	// Overlap the first.
	mustAdd(5, 10)
	if len(s.Ranges()) != 2 || covered(s) != 25 {
		t.Fatalf("after overlap: ranges %v", s.Ranges())
	}
	// Bridge the gap (touching both).
	mustAdd(15, 5)
	if len(s.Ranges()) != 1 || covered(s) != 30 {
		t.Fatalf("after bridge: ranges %v", s.Ranges())
	}
	r := s.Ranges()
	if r[0].Start != 0 || r[0].End != 30 {
		t.Fatalf("ranges = %v", r)
	}
}

func TestIntervalSetAdjacencyMerges(t *testing.T) {
	s := NewIntervalSet()
	s.AddRun(0, 10)
	s.AddRun(10, 5) // exactly adjacent
	if len(s.Ranges()) != 1 {
		t.Fatalf("adjacent ranges not merged: %v", s.Ranges())
	}
}

func TestIntervalSetValidation(t *testing.T) {
	s := NewIntervalSet()
	if err := s.AddRun(0, 0); err == nil {
		t.Error("zero size should error")
	}
	if err := s.AddRun(0, -5); err == nil {
		t.Error("negative size should error")
	}
	if err := s.AddRun(-1, 5); err == nil {
		t.Error("negative start should error")
	}
	// The range a hostile event log can carry: its end overflows int64.
	if err := s.AddRun(math.MaxInt64-5, 10); err == nil {
		t.Error("overflowing range should error")
	}
	if err := s.AddRun(math.MaxInt64-10, 10); err != nil {
		t.Errorf("range ending at the largest offset: %v", err)
	}
	if r := s.Ranges(); len(r) != 1 || r[0] != (Interval{math.MaxInt64 - 10, math.MaxInt64}) {
		t.Errorf("ranges = %v", r)
	}
}

// covers reports whether some stored range of s holds the byte at off.
func covers(s *IntervalSet, off int64) bool {
	for _, r := range s.Ranges() {
		if r.Start <= off && off < r.End {
			return true
		}
	}
	return false
}

func TestIntervalSetContains(t *testing.T) {
	s := NewIntervalSet()
	s.AddRun(10, 10)
	cases := []struct {
		off  int64
		want bool
	}{
		{9, false}, {10, true}, {19, true}, {20, false},
	}
	for _, c := range cases {
		if got := covers(s, c.off); got != c.want {
			t.Errorf("byte %d covered = %v, want %v", c.off, got, c.want)
		}
	}
}

// Merging another set in (UnionWith) coalesces overlapping ranges and
// keeps disjoint ones.
func TestMergeFrom(t *testing.T) {
	a, b := NewIntervalSet(), NewIntervalSet()
	a.AddRun(0, 10)
	b.AddRun(5, 10)
	b.AddRun(100, 10)
	a.UnionWith(b)
	r := a.Ranges()
	if len(r) != 2 || r[0] != (Interval{0, 15}) || r[1] != (Interval{100, 110}) {
		t.Fatalf("merged ranges = %v", r)
	}
}

// naiveSet is a bitmap oracle for randomized testing.
type naiveSet map[int64]bool

func (n naiveSet) add(start, size int64) {
	for i := start; i < start+size; i++ {
		n[i] = true
	}
}

func (n naiveSet) covered() int64 { return int64(len(n)) }

func (n naiveSet) rangeCount() int {
	count := 0
	for off := range n {
		if !n[off-1] {
			count++
		}
	}
	return count
}

func TestIntervalSetRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		s := NewIntervalSet()
		oracle := naiveSet{}
		for i := 0; i < 100; i++ {
			start := int64(rng.Intn(300))
			size := int64(rng.Intn(20) + 1)
			if err := s.AddRun(start, size); err != nil {
				t.Fatal(err)
			}
			oracle.add(start, size)
		}
		if covered(s) != oracle.covered() {
			t.Fatalf("trial %d: covered %d bytes, oracle %d", trial, covered(s), oracle.covered())
		}
		if len(s.Ranges()) != oracle.rangeCount() {
			t.Fatalf("trial %d: %d ranges, oracle %d (ranges %v)", trial, len(s.Ranges()), oracle.rangeCount(), s.Ranges())
		}
		for off := int64(-5); off < 330; off++ {
			if covers(s, off) != oracle[off] {
				t.Fatalf("trial %d: byte %d covered = %v, oracle %v", trial, off, covers(s, off), oracle[off])
			}
		}
	}
}

// Property: covered bytes never exceed the span and never decrease.
func TestIntervalSetMonotoneCoverage(t *testing.T) {
	f := func(ops []struct {
		Start uint16
		Size  uint8
	}) bool {
		s := NewIntervalSet()
		var prev int64
		for _, op := range ops {
			size := int64(op.Size%32) + 1
			if err := s.AddRun(int64(op.Start), size); err != nil {
				return false
			}
			if covered(s) < prev {
				return false
			}
			prev = covered(s)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after arbitrary merging inserts, the stored ranges are
// disjoint, sorted, and non-adjacent (fully coalesced).
func TestIntervalSetCanonicalForm(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		s := NewIntervalSet()
		for i := 0; i < 150; i++ {
			if err := s.AddRun(int64(rng.Intn(500)), int64(rng.Intn(30)+1)); err != nil {
				t.Fatal(err)
			}
		}
		ranges := s.Ranges()
		for i, r := range ranges {
			if r.Len() <= 0 {
				t.Fatalf("empty stored range %v", r)
			}
			if i > 0 {
				prev := ranges[i-1]
				if prev.End >= r.Start {
					t.Fatalf("ranges %v and %v overlap or touch (not coalesced)", prev, r)
				}
			}
		}
	}
}
