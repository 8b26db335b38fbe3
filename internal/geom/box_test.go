package geom

import (
	"testing"
	"testing/quick"
)

func TestBoundingBox(t *testing.T) {
	pts := []Point{NewPoint(1, 5), NewPoint(-2, 3), NewPoint(4, -1)}
	b := BoundingBox(pts)
	if !b.Min.Equal(NewPoint(-2, -1)) || !b.Max.Equal(NewPoint(4, 5)) {
		t.Errorf("BoundingBox = %v", b)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("box does not contain its input point %v", p)
		}
	}
}

func TestBoxContainsBoundary(t *testing.T) {
	b := Box{Min: NewPoint(0, 0), Max: NewPoint(10, 10)}
	if !b.Contains(NewPoint(0, 0)) || !b.Contains(NewPoint(10, 10)) {
		t.Error("box boundary should be inclusive")
	}
	if b.Contains(NewPoint(10.001, 5)) {
		t.Error("box should not contain exterior point")
	}
}

// Property: the bounding box of two points contains both, and the gap
// between two boxes is symmetric, zero when one box contains a point
// of the other, and never more than the distance between any two of
// their points.
func TestBoxProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		p, q := NewPoint(float64(ax), float64(ay)), NewPoint(float64(bx), float64(by))
		r, u := NewPoint(float64(cx), float64(cy)), NewPoint(float64(dx), float64(dy))
		b, o := BoundingBox([]Point{p, q}), BoundingBox([]Point{r, u})
		if !b.Contains(p) || !b.Contains(q) {
			return false
		}
		gap := b.Gap(o)
		if gap != o.Gap(b) || gap > p.Dist(r)+1e-9 {
			return false
		}
		return !o.Contains(p) || gap == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
