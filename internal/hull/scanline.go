package hull

import "math"

// scanClipper is the per-hull precomputation behind scanline
// rasterization: the hull's interior written as linear constraints
// a·x ≤ b, so one lattice row (all coordinates fixed except the
// innermost) clips to a single [lo, hi] interval in O(constraints)
// instead of one Contains call per lattice point.
//
// 2-D hulls with ≥3 vertices derive one constraint per CCW edge
// (the halfplane form of the Orient2D test); 3-D hulls reuse the
// face halfspaces. Degenerate hulls (1–2 vertices, affinely
// degenerate 3-D vertex sets) and dimensions without a constraint
// description fall back to the point-by-point reference scan.
//
// The clip is deliberately conservative: every bound carries a
// scale-aware slack covering both the membership tests' epsilons and
// the clip arithmetic's own rounding, plus one lattice unit of
// safety, so the clipped interval is a superset of the true covered
// interval. The rasterizer then refines each endpoint inward with
// the exact Contains test; because a row's membership set is an
// interval (each constraint's computed value is monotone in the
// innermost coordinate), the refined run is bit-identical to the
// point-by-point scan.
type scanClipper struct {
	ok   bool
	dim  int
	coef []float64 // constraint coefficients, dim per constraint
	rhs  []float64 // constraint right-hand sides
	// maxAbsT bounds |innermost coordinate| over the hull's bbox; it
	// scales the near-zero-coefficient rejection guard.
	maxAbsT float64
}

// scanSlackEps absorbs the membership epsilons (geom.Eps for the 2-D
// orientation test, faceEps for 3-D halfspaces) with ample headroom.
const scanSlackEps = 1e-6

// scanTinyCoef is the threshold below which a constraint's innermost
// coefficient is treated as row-constant.
const scanTinyCoef = 1e-9

// buildClipper derives the constraint description, or ok=false when
// the hull has no exact halfspace/edge form.
func (h *Hull) buildClipper() *scanClipper {
	c := &scanClipper{dim: h.dim}
	c.maxAbsT = math.Max(math.Abs(h.bbox.Min[h.dim-1]), math.Abs(h.bbox.Max[h.dim-1])) + 1
	switch {
	case h.dim == 2 && len(h.verts) >= 3:
		// Edge (a, b) of the CCW polygon: inside means
		// Orient2D(a, b, p) ≥ 0, i.e. (b1-a1)·p0 - (b0-a0)·p1 ≤
		// (b1-a1)·a0 - (b0-a0)·a1.
		n := len(h.verts)
		c.coef = make([]float64, 0, 2*n)
		c.rhs = make([]float64, 0, n)
		for i := 0; i < n; i++ {
			a, b := h.verts[i], h.verts[(i+1)%n]
			c.coef = append(c.coef, b[1]-a[1], -(b[0] - a[0]))
			c.rhs = append(c.rhs, (b[1]-a[1])*a[0]-(b[0]-a[0])*a[1])
		}
		c.ok = true
	case h.dim == 3:
		faces := h.faceCache()
		if faces == nil {
			return c // affinely degenerate: LP fallback only
		}
		c.coef = make([]float64, 0, 3*len(faces))
		c.rhs = make([]float64, 0, len(faces))
		for _, f := range faces {
			c.coef = append(c.coef, f.n[0], f.n[1], f.n[2])
			c.rhs = append(c.rhs, f.c)
		}
		c.ok = true
	}
	return c
}

// rowInterval clips the lattice row with fixed outer coordinates
// row[0..dim-2] against the constraints, narrowing the candidate
// interval [lo, hi] of the innermost coordinate. It reports ok=false
// when the row is definitely empty. The returned interval
// conservatively over-covers the true membership interval; callers
// refine the endpoints with the exact point test.
func (c *scanClipper) rowInterval(row []float64, lo, hi int64) (int64, int64, bool) {
	d := c.dim
	for ci := range c.rhs {
		base := ci * d
		var fixed float64
		for k := 0; k < d-1; k++ {
			fixed += c.coef[base+k] * row[k]
		}
		a := c.coef[base+d-1]
		// Scale-aware slack: membership epsilons plus the relative
		// rounding of the fixed-part accumulation.
		slack := scanSlackEps + 1e-9*(math.Abs(fixed)+math.Abs(c.rhs[ci]))
		rem := c.rhs[ci] - fixed + slack
		switch {
		case a > scanTinyCoef:
			q := rem / a
			if q < float64(lo)-1 {
				return 0, 0, false
			}
			if q < float64(hi) {
				if b := int64(math.Floor(q)) + 1; b < hi {
					hi = b
				}
			}
		case a < -scanTinyCoef:
			q := rem / a
			if q > float64(hi)+1 {
				return 0, 0, false
			}
			if q > float64(lo) {
				if b := int64(math.Ceil(q)) - 1; b > lo {
					lo = b
				}
			}
		default:
			// Row-constant constraint: the |a·t| contribution is
			// bounded by scanTinyCoef·maxAbsT; reject only when the
			// violation clears that guard too.
			if rem < -scanTinyCoef*c.maxAbsT {
				return 0, 0, false
			}
		}
		if lo > hi {
			return 0, 0, false
		}
	}
	return lo, hi, true
}

// clipper returns the hull's cached scanline clipper, building it at
// most once (safe for concurrent rasterization).
func (h *Hull) clipper() *scanClipper {
	h.clipOnce.Do(func() { h.clip = h.buildClipper() })
	return h.clip
}
