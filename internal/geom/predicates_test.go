package geom

import (
	"testing"
	"testing/quick"
)

func TestOrient2D(t *testing.T) {
	a, b := NewPoint(0, 0), NewPoint(1, 0)
	if v := Orient2D(a, b, NewPoint(0, 1)); v <= 0 {
		t.Errorf("ccw turn gave %v, want > 0", v)
	}
	if v := Orient2D(a, b, NewPoint(0, -1)); v >= 0 {
		t.Errorf("cw turn gave %v, want < 0", v)
	}
	if v := Orient2D(a, b, NewPoint(2, 0)); v != 0 {
		t.Errorf("collinear gave %v, want 0", v)
	}
}

func TestSegmentDist2(t *testing.T) {
	a, b := NewPoint(0, 0), NewPoint(10, 0)
	cases := []struct {
		p    Point
		want float64
	}{
		{NewPoint(5, 3), 9},    // perpendicular drop onto interior
		{NewPoint(-3, 4), 25},  // nearest endpoint a
		{NewPoint(13, -4), 25}, // nearest endpoint b
		{NewPoint(7, 0), 0},    // on the segment
	}
	for _, c := range cases {
		if got := SegmentDist2(c.p, a, b); got != c.want {
			t.Errorf("SegmentDist2(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Degenerate segment.
	if got := SegmentDist2(NewPoint(3, 4), NewPoint(0, 0), NewPoint(0, 0)); got != 25 {
		t.Errorf("degenerate segment dist = %v, want 25", got)
	}
}

func TestOrient2DAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a := NewPoint(float64(ax), float64(ay))
		b := NewPoint(float64(bx), float64(by))
		c := NewPoint(float64(cx), float64(cy))
		return Orient2D(a, b, c) == -Orient2D(a, c, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
