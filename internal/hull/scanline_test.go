package hull

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
)

// fractionalPoints generates points with non-lattice coordinates,
// possibly offset outside the space, to stress the clip slack and the
// out-of-space paths.
func fractionalPoints(rng *rand.Rand, n, dim int, extent, offset float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for k := range p {
			p[k] = offset + rng.Float64()*extent
		}
		pts[i] = p
	}
	return pts
}

// rasterCase is one hull population for the equivalence property test.
type rasterCase struct {
	name  string
	hulls []*Hull
	space array.Space
}

func equivalenceCases(t *testing.T, rng *rand.Rand) []rasterCase {
	t.Helper()
	var cases []rasterCase
	for _, dim := range []int{2, 3} {
		dims := make([]int, dim)
		for k := range dims {
			dims[k] = 24
		}
		sp := array.MustSpace(dims...)

		// Random general-position hulls, lattice and fractional coords.
		var latticeHulls, fracHulls []*Hull
		for trial := 0; trial < 6; trial++ {
			latticeHulls = append(latticeHulls, mustHull(t, randomPoints(rng, 3+rng.Intn(12), dim, 24)))
			fracHulls = append(fracHulls, mustHull(t, fractionalPoints(rng, 3+rng.Intn(12), dim, 23, 0)))
		}
		cases = append(cases,
			rasterCase{fmt.Sprintf("%dD/lattice", dim), latticeHulls, sp},
			rasterCase{fmt.Sprintf("%dD/fractional", dim), fracHulls, sp},
		)

		// Degenerate hulls: single vertex, segment, collinear point set.
		seg := randomPoints(rng, 2, dim, 24)
		line := make([]geom.Point, 5)
		for i := range line {
			p := make(geom.Point, dim)
			for k := range p {
				p[k] = float64(2 + 3*i)
			}
			line[i] = p
		}
		cases = append(cases, rasterCase{fmt.Sprintf("%dD/degenerate", dim), []*Hull{
			mustHull(t, randomPoints(rng, 1, dim, 24)),
			mustHull(t, seg),
			mustHull(t, line),
		}, sp})

		// Hulls partially and fully outside the space.
		cases = append(cases, rasterCase{fmt.Sprintf("%dD/outside", dim), []*Hull{
			mustHull(t, fractionalPoints(rng, 6, dim, 20, -10)), // straddles the low boundary
			mustHull(t, fractionalPoints(rng, 6, dim, 20, 14)),  // straddles the high boundary
			mustHull(t, fractionalPoints(rng, 6, dim, 10, 40)),  // fully outside
			mustHull(t, fractionalPoints(rng, 6, dim, 10, -30)), // fully outside (negative)
		}, sp})
	}

	// Coplanar 3-D vertex sets (affinely degenerate: no face description,
	// LP membership, pointwise fallback).
	flat := make([]geom.Point, 7)
	for i := range flat {
		flat[i] = geom.Point{float64(2 + 2*i), float64(20 - 2*i), 7}
	}
	tilted := make([]geom.Point, 6)
	for i := range tilted {
		x, y := float64(3*i), float64(2*i%11)
		tilted[i] = geom.Point{x, y, x + y} // z = x + y plane
	}
	cases = append(cases, rasterCase{"3D/coplanar", []*Hull{
		mustHull(t, flat),
		mustHull(t, tilted),
	}, array.MustSpace(24, 24, 24)})

	return cases
}

// TestScanlineMatchesReference pins the scanline rasterizer
// bit-identical to the retained point-by-point reference across
// random, degenerate, and out-of-space hulls, at several worker
// counts. This is the property that lets the carve pipeline switch
// algorithms without any output drift.
func TestScanlineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range equivalenceCases(t, rng) {
		want, refStats, err := RasterizeReference(context.Background(), tc.hulls, tc.space)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		for _, workers := range []int{1, 4, 8} {
			got, st, err := RasterizeAllStats(context.Background(), tc.hulls, tc.space, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s workers=%d: scanline set (%d indices) differs from reference (%d indices)",
					tc.name, workers, got.Len(), want.Len())
			}
			if st.Hulls != refStats.Hulls {
				t.Fatalf("%s workers=%d: hull count %d vs reference %d", tc.name, workers, st.Hulls, refStats.Hulls)
			}
			if st.PointTests > refStats.PointTests {
				t.Errorf("%s workers=%d: scanline performed %d point tests, more than the reference's %d",
					tc.name, workers, st.PointTests, refStats.PointTests)
			}
		}
	}
}

// TestScanlineStatsDeterministic pins that the work counters are a
// pure function of hulls and space, independent of worker count — the
// property the bench regression gate relies on.
func TestScanlineStatsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sp := array.MustSpace(32, 32)
	var hulls []*Hull
	for i := 0; i < 12; i++ {
		hulls = append(hulls, mustHull(t, fractionalPoints(rng, 5, 2, 31, 0)))
	}
	_, base, err := RasterizeAllStats(context.Background(), hulls, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		_, st, err := RasterizeAllStats(context.Background(), hulls, sp, workers)
		if err != nil {
			t.Fatal(err)
		}
		if st != base {
			t.Fatalf("workers=%d: stats %+v differ from serial %+v", workers, st, base)
		}
	}
}

// TestScanlinePointTestReduction asserts the headline win: on thin
// diagonal strips (the bbox scan's worst case) the scanline path
// performs at least 10x fewer exact point tests than the bbox scan.
func TestScanlinePointTestReduction(t *testing.T) {
	sp := array.MustSpace(192, 192)
	var hulls []*Hull
	for i := 0; i < 8; i++ {
		base := float64(4 + i*6)
		h := mustHull(t, []geom.Point{
			{base, 2}, {base + 4, 2}, {base + 144, 142}, {base + 140, 142},
		})
		hulls = append(hulls, h)
	}
	want, ref, err := RasterizeReference(context.Background(), hulls, sp)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := RasterizeAllStats(context.Background(), hulls, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("scanline output differs from reference on diagonal strips")
	}
	if st.PointTests*10 > ref.PointTests {
		t.Fatalf("point tests %d vs bbox-scan %d: reduction %.1fx < 10x",
			st.PointTests, ref.PointTests, float64(ref.PointTests)/float64(st.PointTests))
	}
}

// TestSharedHullConcurrentRasterize exercises the lazily built face
// and clipper caches from many goroutines sharing one 3-D hull; under
// -race this pins the sync.Once guards (the former lazy build raced).
func TestSharedHullConcurrentRasterize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := mustHull(t, randomPoints(rng, 12, 3, 16))
	sp := array.MustSpace(16, 16, 16)
	want, err := h.RasterizeContext(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errsC := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := h.RasterizeContext(context.Background(), sp)
			if err != nil {
				errsC <- err
				return
			}
			if !got.Equal(want) {
				errsC <- errors.New("concurrent rasterization diverged")
				return
			}
			// Concurrent Contains shares the same caches.
			if !h.Contains(h.Centroid()) {
				errsC <- errors.New("hull does not contain its centroid")
			}
		}()
	}
	wg.Wait()
	close(errsC)
	for err := range errsC {
		t.Error(err)
	}
}

// TestRasterizeAllStopsAfterError pins the prompt-stop behavior: once
// one worker hits a hard error (a hull whose dimension does not match
// the space), the others must not drain the remaining hull list.
func TestRasterizeAllStopsAfterError(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	sp := array.MustSpace(64, 64)
	bad := mustHull(t, randomPoints(rng, 4, 3, 16)) // 3-D hull over a 2-D space
	good := mustHull(t, fractionalPoints(rng, 5, 2, 63, 0))
	_, perHull, err := RasterizeAllStats(context.Background(), []*Hull{good}, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	hulls := []*Hull{bad}
	for i := 0; i < n; i++ {
		hulls = append(hulls, good)
	}
	const workers = 4
	_, st, err := RasterizeAllStats(context.Background(), hulls, sp, workers)
	if err == nil {
		t.Fatal("want error from mismatched hull, got nil")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("real error masked by induced cancellation: %v", err)
	}
	// Each worker may finish the hull it already started, but no worker
	// may keep pulling new hulls after the failure flag is up. Allow a
	// generous scheduling margin — far below the n-hull full drain.
	if limit := perHull.Rows * workers * 4; st.Rows > limit {
		t.Fatalf("workers drained %d rows after failure (limit %d; full drain would be %d)",
			st.Rows, limit, perHull.Rows*n)
	}
}

// TestRasterizeAllPreCanceled pins that an already-canceled context
// returns promptly without walking any hull.
func TestRasterizeAllPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sp := array.MustSpace(64, 64)
	var hulls []*Hull
	for i := 0; i < 50; i++ {
		hulls = append(hulls, mustHull(t, fractionalPoints(rng, 5, 2, 63, 0)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, st, err := RasterizeAllStats(ctx, hulls, sp, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if st.Rows != 0 {
			t.Fatalf("workers=%d: walked %d rows under a pre-canceled context", workers, st.Rows)
		}
	}
}

// TestRasterizeContextCanceled pins single-hull cancellation: the
// mid-walk context check stops a large lattice scan.
func TestRasterizeContextCanceled(t *testing.T) {
	h := mustHull(t, []geom.Point{{0, 0}, {500, 0}, {500, 500}, {0, 500}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.RasterizeContext(ctx, array.MustSpace(501, 501)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// nil context must behave as Background, not panic.
	if _, err := h.RasterizeContext(nil, array.MustSpace(501, 501)); err != nil { //nolint:staticcheck
		t.Fatalf("nil context: %v", err)
	}
}

// TestRowIntervalZeroAlloc pins that clipping one row allocates
// nothing — the scanline inner loop must stay allocation-free.
func TestRowIntervalZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is skipped in -short (race) runs")
	}
	h := mustHull(t, []geom.Point{{2, 3}, {90, 7}, {95, 88}, {4, 91}})
	cl := h.clipper()
	if !cl.ok {
		t.Fatal("expected a clipper for a 2-D polygon")
	}
	row := []float64{40}
	allocs := testing.AllocsPerRun(200, func() {
		for y := 0.0; y < 64; y++ {
			row[0] = y
			cl.rowInterval(row, 0, 95)
		}
	})
	if allocs != 0 {
		t.Fatalf("rowInterval allocates %.1f per batch, want 0", allocs)
	}
}
