package geom

import "math"

// Eps is the default tolerance for the floating-point orientation
// predicates. Index coordinates in Kondo are small integers mapped to
// float64, so a fixed absolute tolerance is adequate; we do not need
// adaptive-precision arithmetic.
const Eps = 1e-9

// Orient2D returns a positive value if a→b→c turns counter-clockwise,
// negative if clockwise, and zero (within Eps) if the three points are
// collinear. The magnitude is twice the signed triangle area.
func Orient2D(a, b, c Point) float64 {
	v := (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
	if math.Abs(v) <= Eps {
		return 0
	}
	return v
}

// SegmentDist2 returns the squared distance from point p to segment
// [a, b] in any dimension.
func SegmentDist2(p, a, b Point) float64 {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 {
		return p.Dist2(a)
	}
	t := p.Sub(a).Dot(ab) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	proj := a.Add(ab.Scale(t))
	return p.Dist2(proj)
}
