package hull

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
)

func pt(coords ...float64) geom.Point { return geom.NewPoint(coords...) }

func TestMonotoneChainSquare(t *testing.T) {
	pts := []geom.Point{
		pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4),
		pt(2, 2), pt(1, 3), pt(2, 0), // interior + edge points
	}
	verts := monotoneChain(pts)
	if len(verts) != 4 {
		t.Fatalf("hull has %d vertices, want 4: %v", len(verts), verts)
	}
	// All corners present.
	want := map[string]bool{"0,0": true, "4,0": true, "4,4": true, "0,4": true}
	for _, v := range verts {
		delete(want, v.Key())
	}
	if len(want) != 0 {
		t.Errorf("missing corners: %v", want)
	}
	// CCW orientation.
	area := 0.0
	for i := range verts {
		a, b := verts[i], verts[(i+1)%len(verts)]
		area += a[0]*b[1] - b[0]*a[1]
	}
	if area <= 0 {
		t.Errorf("vertices not CCW (signed area %v)", area)
	}
}

func TestMonotoneChainDegenerate(t *testing.T) {
	// Single point.
	if v := monotoneChain([]geom.Point{pt(3, 3), pt(3, 3)}); len(v) != 1 {
		t.Errorf("single point hull = %v", v)
	}
	// Collinear points.
	v := monotoneChain([]geom.Point{pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3)})
	if len(v) != 2 {
		t.Fatalf("collinear hull = %v", v)
	}
}

func TestHull2DContains(t *testing.T) {
	h, err := New([]geom.Point{pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10), pt(5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 4 {
		t.Errorf("NumVertices = %d", h.NumVertices())
	}
	cases := []struct {
		p    geom.Point
		want bool
	}{
		{pt(5, 5), true},
		{pt(0, 0), true},
		{pt(10, 5), true},
		{pt(10.5, 5), false},
		{pt(-1, 5), false},
		{pt(5, 11), false},
	}
	for _, c := range cases {
		if got := h.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHullDegenerateContains(t *testing.T) {
	// Point hull.
	h, err := New([]geom.Point{pt(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Contains(pt(2, 3)) || h.Contains(pt(2, 4)) {
		t.Error("point hull membership wrong")
	}
	// Segment hull.
	h, err = New([]geom.Point{pt(0, 0), pt(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Contains(pt(2, 2)) || h.Contains(pt(2, 3)) || h.Contains(pt(5, 5)) {
		t.Error("segment hull membership wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty New should error")
	}
	if _, err := New([]geom.Point{pt(1, 2), pt(1, 2, 3)}); err == nil {
		t.Error("mixed dimensions should error")
	}
}

func TestInConvexCombination2D(t *testing.T) {
	tri := []geom.Point{pt(0, 0), pt(10, 0), pt(0, 10)}
	cases := []struct {
		p    geom.Point
		want bool
	}{
		{pt(1, 1), true},
		{pt(0, 0), true},
		{pt(5, 5), true},  // on hypotenuse
		{pt(6, 5), false}, // just outside
		{pt(-1, 0), false},
	}
	for _, c := range cases {
		if got := InConvexCombination(c.p, tri); got != c.want {
			t.Errorf("InConvexCombination(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if InConvexCombination(pt(0, 0), nil) {
		t.Error("empty vertex set should contain nothing")
	}
}

// TestLPAgreesWithPolygon cross-validates the simplex membership
// oracle against the exact 2D polygon test on random hulls and probe
// points.
func TestLPAgreesWithPolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		var pts []geom.Point
		for i := 0; i < 12; i++ {
			pts = append(pts, pt(float64(rng.Intn(20)), float64(rng.Intn(20))))
		}
		verts := monotoneChain(pts)
		if len(verts) < 3 {
			continue
		}
		for probe := 0; probe < 40; probe++ {
			p := pt(float64(rng.Intn(22))-1, float64(rng.Intn(22))-1)
			// Skip points within Eps of an edge, where the two tests
			// may legitimately disagree on ties.
			onEdge := false
			for i := range verts {
				a, b := verts[i], verts[(i+1)%len(verts)]
				if geom.SegmentDist2(p, a, b) < 1e-6 {
					onEdge = true
					break
				}
			}
			if onEdge {
				continue
			}
			poly := inPolygonCCW(p, verts)
			lp := InConvexCombination(p, verts)
			if poly != lp {
				t.Fatalf("trial %d: point %v polygon=%v lp=%v verts=%v", trial, p, poly, lp, verts)
			}
		}
	}
}

func TestHull3DCube(t *testing.T) {
	var pts []geom.Point
	for x := 0.0; x <= 4; x += 4 {
		for y := 0.0; y <= 4; y += 4 {
			for z := 0.0; z <= 4; z += 4 {
				pts = append(pts, pt(x, y, z))
			}
		}
	}
	pts = append(pts, pt(2, 2, 2), pt(1, 1, 1)) // interior
	h, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 8 {
		t.Errorf("cube hull has %d vertices, want 8", h.NumVertices())
	}
	if !h.Contains(pt(2, 2, 2)) || !h.Contains(pt(0, 0, 0)) || !h.Contains(pt(4, 4, 2)) {
		t.Error("cube membership wrong for interior/boundary")
	}
	if h.Contains(pt(4.5, 2, 2)) || h.Contains(pt(-0.5, 0, 0)) {
		t.Error("cube membership wrong for exterior")
	}
}

func TestHull3DDegeneratePlane(t *testing.T) {
	// All points in the z=1 plane: face enumeration must fall back to
	// the LP.
	pts := []geom.Point{pt(0, 0, 1), pt(4, 0, 1), pt(4, 4, 1), pt(0, 4, 1)}
	h, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Contains(pt(2, 2, 1)) {
		t.Error("coplanar hull should contain interior plane point")
	}
	if h.Contains(pt(2, 2, 2)) {
		t.Error("coplanar hull should not contain off-plane point")
	}
}

func TestMergeCoversBothHulls(t *testing.T) {
	a, err := New([]geom.Point{pt(0, 0), pt(2, 0), pt(0, 2), pt(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New([]geom.Point{pt(10, 10), pt(12, 10), pt(10, 12), pt(12, 12)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []geom.Point{pt(1, 1), pt(11, 11), pt(6, 6)} {
		if !m.Contains(p) {
			t.Errorf("merged hull missing %v", p)
		}
	}
	if _, err := Merge(a, mustHull(t, []geom.Point{pt(0, 0, 0)})); err == nil {
		t.Error("cross-dimension merge should error")
	}
}

func mustHull(t *testing.T, pts []geom.Point) *Hull {
	t.Helper()
	h, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestDistances(t *testing.T) {
	a := mustHull(t, []geom.Point{pt(0, 0), pt(2, 0), pt(0, 2), pt(2, 2)})
	b := mustHull(t, []geom.Point{pt(5, 0), pt(7, 0), pt(5, 2), pt(7, 2)})
	if d := a.CenterDist(b); d != 5 {
		t.Errorf("CenterDist = %v, want 5", d)
	}
	if d := a.BoundaryDist(b); d != 3 {
		t.Errorf("BoundaryDist = %v, want 3", d)
	}
	if d := a.BoundaryDist(a); d != 0 {
		t.Errorf("self BoundaryDist = %v, want 0", d)
	}
}

func TestRasterize2D(t *testing.T) {
	// Triangle (0,0)-(4,0)-(0,4) over a 6x6 space.
	h := mustHull(t, []geom.Point{pt(0, 0), pt(4, 0), pt(0, 4)})
	space := array.MustSpace(6, 6)
	set, err := h.RasterizeContext(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for x := 0; x <= 4; x++ {
		for y := 0; y <= 4-x; y++ {
			want++
			if !set.Contains(array.NewIndex(x, y)) {
				t.Errorf("missing lattice point (%d,%d)", x, y)
			}
		}
	}
	if set.Len() != want {
		t.Errorf("rasterized %d points, want %d", set.Len(), want)
	}
}

func TestRasterizeClipsToSpace(t *testing.T) {
	h := mustHull(t, []geom.Point{pt(-5, -5), pt(3, -5), pt(-5, 3), pt(3, 3)})
	space := array.MustSpace(4, 4)
	set, err := h.RasterizeContext(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 16 {
		t.Errorf("clipped rasterization = %d points, want 16", set.Len())
	}
	// Entirely outside.
	far := mustHull(t, []geom.Point{pt(100, 100), pt(101, 100), pt(100, 101)})
	set, err = far.RasterizeContext(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 0 {
		t.Errorf("outside hull rasterized %d points", set.Len())
	}
}

func TestRasterizeAll(t *testing.T) {
	a := mustHull(t, []geom.Point{pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)})
	b := mustHull(t, []geom.Point{pt(1, 1), pt(2, 1), pt(1, 2), pt(2, 2)}) // overlaps at (1,1)
	space := array.MustSpace(4, 4)
	set, _, err := RasterizeAllStats(context.Background(), []*Hull{a, b}, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 7 { // 4 + 4 - 1 shared
		t.Errorf("union rasterization = %d, want 7", set.Len())
	}
	if _, _, err := RasterizeAllStats(context.Background(), []*Hull{a}, array.MustSpace(2, 2, 2), 1); err == nil {
		t.Error("rank mismatch should error")
	}
}

// TestHull3DRandomAgainstLP cross-validates face-based 3D membership
// against the LP oracle.
func TestHull3DRandomAgainstLP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		var pts []geom.Point
		for i := 0; i < 10; i++ {
			pts = append(pts, pt(float64(rng.Intn(10)), float64(rng.Intn(10)), float64(rng.Intn(10))))
		}
		h, err := New(pts)
		if err != nil {
			t.Fatal(err)
		}
		faces := h.faceCache()
		if faces == nil {
			continue // degenerate; LP path is authoritative anyway
		}
		for probe := 0; probe < 30; probe++ {
			p := pt(float64(rng.Intn(12))-1, float64(rng.Intn(12))-1, float64(rng.Intn(12))-1)
			// Skip near-boundary points where tolerance differences
			// may flip the verdict.
			nearBoundary := false
			for _, f := range faces {
				if absF(f.n.Dot(p)-f.c) < 1e-4 {
					nearBoundary = true
					break
				}
			}
			if nearBoundary {
				continue
			}
			got := inHalfspaces(p, faces)
			want := InConvexCombination(p, h.Vertices())
			if got != want {
				t.Fatalf("trial %d: %v faces=%v lp=%v", trial, p, got, want)
			}
		}
	}
}
