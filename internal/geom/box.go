package geom

import (
	"fmt"
	"math"
)

// Box is an axis-aligned bounding box in d dimensions, inclusive on
// both ends. Min and Max must have the same dimension and satisfy
// Min[i] <= Max[i] for a non-empty box.
type Box struct {
	Min, Max Point
}

// BoundingBox returns the smallest box containing all points. It
// panics if pts is empty.
func BoundingBox(pts []Point) Box {
	if len(pts) == 0 {
		panic("geom: BoundingBox of empty point set")
	}
	min := pts[0].Clone()
	max := pts[0].Clone()
	for _, p := range pts[1:] {
		checkDim(min, p)
		for i := range p {
			if p[i] < min[i] {
				min[i] = p[i]
			}
			if p[i] > max[i] {
				max[i] = p[i]
			}
		}
	}
	return Box{Min: min, Max: max}
}

// Contains reports whether p lies inside the box (inclusive).
func (b Box) Contains(p Point) bool {
	checkDim(b.Min, p)
	for i := range p {
		if p[i] < b.Min[i] || p[i] > b.Max[i] {
			return false
		}
	}
	return true
}

// Gap returns the Euclidean distance between the two boxes: the
// smallest distance between any point of b and any point of o, zero
// when they intersect. It lower-bounds the distance between any two
// point sets contained in the boxes.
func (b Box) Gap(o Box) float64 {
	checkDim(b.Min, o.Min)
	var sum float64
	for i := range b.Min {
		var d float64
		switch {
		case o.Min[i] > b.Max[i]:
			d = o.Min[i] - b.Max[i]
		case b.Min[i] > o.Max[i]:
			d = b.Min[i] - o.Max[i]
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}

// String formats the box as "[min .. max]".
func (b Box) String() string {
	return fmt.Sprintf("[%s .. %s]", b.Min, b.Max)
}
