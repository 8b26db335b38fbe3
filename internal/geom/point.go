// Package geom provides the d-dimensional geometric primitives used by
// Kondo's fuzzer (parameter-space frames and clusters) and carver
// (convex hulls over index space): points, vectors, bounding boxes,
// and the orientation and distance predicates of hull construction.
//
// Points are represented as []float64 slices. All functions treat the
// slice length as the dimension d and panic on dimension mismatch;
// mixing dimensions is a programming error, not a runtime condition.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a location in d-dimensional euclidean space. The slice
// length is the dimension. A Point is also used as a displacement
// vector where that reading is natural (Sub, Dot, Cross).
type Point []float64

// NewPoint returns a Point with the given coordinates.
func NewPoint(coords ...float64) Point {
	p := make(Point, len(coords))
	copy(p, coords)
	return p
}

// Dim returns the dimension of the point.
func (p Point) Dim() int { return len(p) }

// Clone returns a copy of p that shares no storage with it.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have the same dimension and identical
// coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether every coordinate of p is within eps of
// the corresponding coordinate of q.
func (p Point) ApproxEqual(q Point, eps float64) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Abs(p[i]-q[i]) > eps {
			return false
		}
	}
	return true
}

func checkDim(p, q Point) {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d != %d", len(p), len(q)))
	}
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	checkDim(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point {
	checkDim(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] * s
	}
	return r
}

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 {
	checkDim(p, q)
	var s float64
	for i := range p {
		s += p[i] * q[i]
	}
	return s
}

// Norm returns the euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Dist returns the euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Dist2 returns the squared euclidean distance between p and q. It
// avoids the square root for comparison-only call sites such as
// nearest-cluster search.
func (p Point) Dist2(q Point) float64 {
	checkDim(p, q)
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Cross3 returns the 3D cross product p × q. Both points must be
// 3-dimensional.
func Cross3(p, q Point) Point {
	if len(p) != 3 || len(q) != 3 {
		panic("geom: Cross3 requires 3D points")
	}
	return Point{
		p[1]*q[2] - p[2]*q[1],
		p[2]*q[0] - p[0]*q[2],
		p[0]*q[1] - p[1]*q[0],
	}
}

// Centroid returns the arithmetic mean of the given points. It panics
// if pts is empty or dimensions disagree.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of empty point set")
	}
	c := make(Point, len(pts[0]))
	for _, p := range pts {
		checkDim(c, p)
		for i := range c {
			c[i] += p[i]
		}
	}
	inv := 1.0 / float64(len(pts))
	for i := range c {
		c[i] *= inv
	}
	return c
}

// String formats the point as "(x1, x2, ...)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Less orders points lexicographically by coordinate. It is the sort
// order used by the 2D monotone-chain hull and by deterministic
// deduplication.
func (p Point) Less(q Point) bool {
	checkDim(p, q)
	for i := range p {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return false
}
