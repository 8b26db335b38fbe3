package hull

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
)

func randomPoints(rng *rand.Rand, n, dim, extent int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for k := range p {
			p[k] = float64(rng.Intn(extent))
		}
		pts[i] = p
	}
	return pts
}

// Property: every input point is contained in the hull built from it.
func TestHullContainsInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dim := range []int{2, 3} {
		for trial := 0; trial < 25; trial++ {
			pts := randomPoints(rng, 3+rng.Intn(15), dim, 20)
			h, err := New(pts)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				if !h.Contains(p) {
					t.Fatalf("dim %d trial %d: hull of %v does not contain input %v (verts %v)",
						dim, trial, pts, p, h.Vertices())
				}
			}
		}
	}
}

// Property: hulling a hull's vertices is idempotent (same vertex
// list, in the same order).
func TestHullIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, dim := range []int{2, 3} {
		for trial := 0; trial < 20; trial++ {
			pts := randomPoints(rng, 4+rng.Intn(12), dim, 16)
			h1, err := New(pts)
			if err != nil {
				t.Fatal(err)
			}
			h2, err := New(h1.Vertices())
			if err != nil {
				t.Fatal(err)
			}
			if !sameVertexList(h1.Vertices(), h2.Vertices()) {
				t.Fatalf("dim %d: re-hull vertices %v, original %v", dim, h2.Vertices(), h1.Vertices())
			}
		}
	}
}

// Property (3-D and 4-D): the vertex list is a function of the point
// set alone — shuffled input gives the identical list, in
// lexicographic order.
func TestHullPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dim := range []int{3, 4} {
		for trial := 0; trial < 15; trial++ {
			pts := randomPoints(rng, 5+rng.Intn(40), dim, 10)
			h1, err := New(pts)
			if err != nil {
				t.Fatal(err)
			}
			shuffled := append([]geom.Point(nil), pts...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			h2, err := New(shuffled)
			if err != nil {
				t.Fatal(err)
			}
			if !sameVertexList(h1.Vertices(), h2.Vertices()) {
				t.Fatalf("dim %d trial %d: shuffled input gave vertices %v, want %v",
					dim, trial, h2.Vertices(), h1.Vertices())
			}
			vs := h1.Vertices()
			for i := 1; i < len(vs); i++ {
				if !vs[i-1].Less(vs[i]) {
					t.Fatalf("dim %d trial %d: vertices not in lexicographic order: %v", dim, trial, vs)
				}
			}
		}
	}
}

// sameVertexList reports whether two vertex lists hold the same
// coordinates in the same order.
func sameVertexList(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Property: the merged hull contains every point of both hulls, and
// merge is symmetric in coverage.
func TestMergeCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		a, err := New(randomPoints(rng, 5+rng.Intn(8), 2, 30))
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(randomPoints(rng, 5+rng.Intn(8), 2, 30))
		if err != nil {
			t.Fatal(err)
		}
		ab, err := Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := Merge(b, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range append(append([]geom.Point{}, a.Vertices()...), b.Vertices()...) {
			if !ab.Contains(v) {
				t.Fatalf("merged hull misses vertex %v", v)
			}
			if ab.Contains(v) != ba.Contains(v) {
				t.Fatalf("merge not symmetric at %v", v)
			}
		}
	}
}

// Property: rasterization covers exactly the lattice points the hull
// contains (cross-check Rasterize against Contains).
func TestRasterizeMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	space := array.MustSpace(24, 24)
	for trial := 0; trial < 10; trial++ {
		h, err := New(randomPoints(rng, 6, 2, 24))
		if err != nil {
			t.Fatal(err)
		}
		raster, err := h.RasterizeContext(context.Background(), space)
		if err != nil {
			t.Fatal(err)
		}
		space.Each(func(ix array.Index) bool {
			p := geom.NewPoint(float64(ix[0]), float64(ix[1]))
			if raster.Contains(ix) != h.Contains(p) {
				t.Fatalf("trial %d: raster/Contains disagree at %v", trial, ix)
			}
			return true
		})
	}
}

// Property: BoundaryDist is symmetric and zero for overlapping vertex
// sets; CenterDist is symmetric.
func TestDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		a, err := New(randomPoints(rng, 5, 2, 20))
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(randomPoints(rng, 5, 2, 20))
		if err != nil {
			t.Fatal(err)
		}
		if a.BoundaryDist(b) != b.BoundaryDist(a) {
			t.Fatal("BoundaryDist not symmetric")
		}
		if a.CenterDist(b) != b.CenterDist(a) {
			t.Fatal("CenterDist not symmetric")
		}
		if a.CenterDist(a) != 0 || a.BoundaryDist(a) != 0 {
			t.Fatal("self distances not zero")
		}
	}
}

// Property (3D): the hull of a shifted point set contains shifted
// probes iff the original contains the originals (translation
// invariance of membership).
func TestTranslationInvariance3D(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	shift := geom.NewPoint(7, -3, 11)
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(rng, 8, 3, 12)
		shifted := make([]geom.Point, len(pts))
		for i, p := range pts {
			shifted[i] = p.Add(shift)
		}
		h1, err := New(pts)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := New(shifted)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 30; probe++ {
			p := geom.NewPoint(float64(rng.Intn(14))-1, float64(rng.Intn(14))-1, float64(rng.Intn(14))-1)
			// Skip points near either hull's boundary where float
			// tolerance could flip the verdict between the two tests.
			if nearVertex(p, h1, 0.51) {
				continue
			}
			if h1.Contains(p) != h2.Contains(p.Add(shift)) {
				t.Fatalf("translation invariance broken at %v", p)
			}
		}
	}
}

func nearVertex(p geom.Point, h *Hull, eps float64) bool {
	for _, v := range h.Vertices() {
		if p.Dist(v) < eps {
			return true
		}
	}
	return false
}
