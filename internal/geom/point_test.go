package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := NewPoint(1, 2, 3)
	q := NewPoint(4, 5, 6)

	if got := p.Add(q); !got.Equal(NewPoint(5, 7, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); !got.Equal(NewPoint(3, 3, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); !got.Equal(NewPoint(2, 4, 6)) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestPointDim(t *testing.T) {
	if d := NewPoint(1, 2).Dim(); d != 2 {
		t.Errorf("Dim = %d, want 2", d)
	}
	if d := NewPoint().Dim(); d != 0 {
		t.Errorf("Dim = %d, want 0", d)
	}
}

func TestPointCloneIndependence(t *testing.T) {
	p := NewPoint(1, 2)
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestDistances(t *testing.T) {
	a := NewPoint(0, 0)
	b := NewPoint(3, 4)
	if d := a.Dist(b); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d2 := a.Dist2(b); d2 != 25 {
		t.Errorf("Dist2 = %v, want 25", d2)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	NewPoint(1, 2).Add(NewPoint(1, 2, 3))
}

func TestCross3(t *testing.T) {
	x := NewPoint(1, 0, 0)
	y := NewPoint(0, 1, 0)
	if got := Cross3(x, y); !got.Equal(NewPoint(0, 0, 1)) {
		t.Errorf("x × y = %v, want (0,0,1)", got)
	}
	// Anti-commutativity.
	if got := Cross3(y, x); !got.Equal(NewPoint(0, 0, -1)) {
		t.Errorf("y × x = %v, want (0,0,-1)", got)
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{NewPoint(0, 0), NewPoint(2, 0), NewPoint(0, 2), NewPoint(2, 2)}
	if got := Centroid(pts); !got.Equal(NewPoint(1, 1)) {
		t.Errorf("Centroid = %v, want (1,1)", got)
	}
}

func TestCentroidEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty centroid")
		}
	}()
	Centroid(nil)
}

func TestLessLexicographic(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{NewPoint(0, 5), NewPoint(1, 0), true},
		{NewPoint(1, 0), NewPoint(1, 1), true},
		{NewPoint(1, 1), NewPoint(1, 1), false},
		{NewPoint(2, 0), NewPoint(1, 9), false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: distance is symmetric and satisfies the triangle
// inequality for finite inputs.
func TestDistProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := NewPoint(float64(ax), float64(ay))
		b := NewPoint(float64(bx), float64(by))
		c := NewPoint(float64(cx), float64(cy))
		if a.Dist(b) != b.Dist(a) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dist2 equals Dist squared.
func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		a := NewPoint(float64(ax), float64(ay))
		b := NewPoint(float64(bx), float64(by))
		return math.Abs(a.Dist2(b)-a.Dist(b)*a.Dist(b)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if s := NewPoint(1, 2.5).String(); s != "(1, 2.5)" {
		t.Errorf("String = %q", s)
	}
}
