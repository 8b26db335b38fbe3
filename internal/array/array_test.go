package array

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Error("empty dims should error")
	}
	if _, err := NewSpace(10, 0); err == nil {
		t.Error("zero extent should error")
	}
	if _, err := NewSpace(10, -3); err == nil {
		t.Error("negative extent should error")
	}
	s, err := NewSpace(4, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 3 || s.Size() != 120 {
		t.Errorf("Rank=%d Size=%d, want 3, 120", s.Rank(), s.Size())
	}
}

// TestNewSpaceRejectsOverflow: an element count past int64 is an
// error, not a wrapped Size — a wrapped space gave sizes of 581896768,
// 0 and -1 and negative linear indices.
func TestNewSpaceRejectsOverflow(t *testing.T) {
	for _, dims := range [][]int{
		{3037000500, 3037000500, 4},
		{4294967296, 4294967296},
		{4294967297, 4294967295},
		{1 << 62, 2},
	} {
		if s, err := NewSpace(dims...); err == nil {
			t.Errorf("NewSpace(%v) = size %d, want an overflow error", dims, s.Size())
		}
	}
	// The largest counts that fit are still spaces.
	for _, dims := range [][]int{
		{math.MaxInt64},
		{3037000499, 3037000499},
		{1 << 31, 1 << 31, 1},
	} {
		s, err := NewSpace(dims...)
		if err != nil {
			t.Fatalf("NewSpace(%v): %v", dims, err)
		}
		last := make(Index, len(dims))
		for k, d := range dims {
			last[k] = d - 1
		}
		if lin, err := s.Linear(last); err != nil || lin != s.Size()-1 {
			t.Fatalf("%v: Linear(last) = %d, %v; want %d", dims, lin, err, s.Size()-1)
		}
	}
}

func TestSpaceContains(t *testing.T) {
	s := MustSpace(10, 20)
	cases := []struct {
		ix   Index
		want bool
	}{
		{NewIndex(0, 0), true},
		{NewIndex(9, 19), true},
		{NewIndex(10, 0), false},
		{NewIndex(0, 20), false},
		{NewIndex(-1, 0), false},
		{NewIndex(1, 2, 3), false}, // rank mismatch
		{NewIndex(1), false},
	}
	for _, c := range cases {
		if got := s.Contains(c.ix); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.ix, got, c.want)
		}
	}
}

func TestLinearRowMajor(t *testing.T) {
	s := MustSpace(3, 4)
	// Row-major: last dimension fastest.
	want := int64(0)
	s.Each(func(ix Index) bool {
		lin, err := s.Linear(ix)
		if err != nil {
			t.Fatalf("Linear(%v): %v", ix, err)
		}
		if lin != want {
			t.Fatalf("Linear(%v) = %d, want %d", ix, lin, want)
		}
		want++
		return true
	})
	if want != 12 {
		t.Errorf("Each visited %d indices, want 12", want)
	}
}

func TestLinearUnlinearRoundTrip(t *testing.T) {
	s := MustSpace(5, 7, 3)
	for lin := int64(0); lin < s.Size(); lin++ {
		ix, err := s.Unlinear(lin)
		if err != nil {
			t.Fatal(err)
		}
		back, err := s.Linear(ix)
		if err != nil {
			t.Fatal(err)
		}
		if back != lin {
			t.Fatalf("round trip %d -> %v -> %d", lin, ix, back)
		}
	}
}

func TestLinearOutOfBounds(t *testing.T) {
	s := MustSpace(5, 5)
	if _, err := s.Linear(NewIndex(5, 0)); err == nil {
		t.Error("out-of-bounds Linear should error")
	}
	if _, err := s.Unlinear(25); err == nil {
		t.Error("out-of-range Unlinear should error")
	}
	if _, err := s.Unlinear(-1); err == nil {
		t.Error("negative Unlinear should error")
	}
}

func TestEachEarlyStop(t *testing.T) {
	s := MustSpace(10, 10)
	n := 0
	s.Each(func(Index) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d, want 7", n)
	}
}

func TestIndexEqualClone(t *testing.T) {
	a := NewIndex(1, 2, 3)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b[0] = 9
	if a[0] != 1 {
		t.Error("clone shares storage")
	}
	if a.Equal(NewIndex(1, 2)) {
		t.Error("different ranks reported equal")
	}
}

func TestSpaceString(t *testing.T) {
	if s := MustSpace(128, 128).String(); s != "128×128" {
		t.Errorf("String = %q", s)
	}
}

// Property: for any valid space up to rank 3, Linear and Unlinear are
// inverse bijections on random valid indices.
func TestLinearBijectionProperty(t *testing.T) {
	f := func(d1, d2, d3 uint8, l uint16) bool {
		dims := []int{int(d1%8) + 1, int(d2%8) + 1, int(d3%8) + 1}
		s := MustSpace(dims...)
		lin := int64(l) % s.Size()
		ix, err := s.Unlinear(lin)
		if err != nil {
			return false
		}
		back, err := s.Linear(ix)
		return err == nil && back == lin && s.Contains(ix)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
