package carve

import (
	"context"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/hull"
)

// fill adds a dense rectangle of indices to the set.
func fill(t *testing.T, set *array.IndexSet, r0, c0, r1, c1 int) {
	t.Helper()
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			if _, err := set.Add(array.NewIndex(r, c)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCarveEmpty(t *testing.T) {
	set := array.NewIndexSet(array.MustSpace(32, 32))
	hulls, _, err := CarveStats(context.Background(), set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if hulls != nil {
		t.Errorf("empty carve returned %d hulls", len(hulls))
	}
}

func TestCarveConfigValidation(t *testing.T) {
	set := array.NewIndexSet(array.MustSpace(8, 8))
	set.AddLinear(0)
	if _, _, err := CarveStats(context.Background(), set, Config{CellSize: 0}); err == nil {
		t.Error("zero cell size should error")
	}
	if _, _, err := CarveStats(context.Background(), set, Config{CellSize: 4, CenterDistThresh: -1}); err == nil {
		t.Error("negative threshold should error")
	}
}

func TestCarveSingleDenseRegion(t *testing.T) {
	space := array.MustSpace(64, 64)
	set := array.NewIndexSet(space)
	fill(t, set, 0, 0, 30, 30)
	hulls, _, err := CarveStats(context.Background(), set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(hulls) != 1 {
		t.Fatalf("dense region carved into %d hulls, want 1", len(hulls))
	}
	raster, _, err := RasterizeStats(context.Background(), hulls, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The merged hull must cover exactly the filled square.
	if raster.Len() != 31*31 {
		t.Errorf("rasterized %d indices, want %d", raster.Len(), 31*31)
	}
}

func TestCarveKeepsDistantRegionsSeparate(t *testing.T) {
	// Two 8x8 blocks at opposite corners of 128x128, far beyond both
	// thresholds — the LDC/RDC situation where precision stays 1.
	space := array.MustSpace(128, 128)
	set := array.NewIndexSet(space)
	fill(t, set, 0, 0, 7, 7)
	fill(t, set, 120, 120, 127, 127)
	hulls, _, err := CarveStats(context.Background(), set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(hulls) != 2 {
		t.Fatalf("distant regions carved into %d hulls, want 2", len(hulls))
	}
	raster, _, err := RasterizeStats(context.Background(), hulls, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	if raster.Len() != 128 {
		t.Errorf("rasterized %d indices, want 128", raster.Len())
	}
	if raster.Contains(array.NewIndex(64, 64)) {
		t.Error("midpoint between regions should not be covered")
	}
}

func TestCarveMergesNearbyRegions(t *testing.T) {
	// Two blocks 4 apart (boundary distance < 10): they must merge,
	// covering the sandwiched gap.
	space := array.MustSpace(64, 64)
	set := array.NewIndexSet(space)
	fill(t, set, 0, 0, 7, 7)
	fill(t, set, 0, 12, 7, 19)
	hulls, _, err := CarveStats(context.Background(), set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(hulls) != 1 {
		t.Fatalf("nearby regions carved into %d hulls, want 1", len(hulls))
	}
	raster, _, err := RasterizeStats(context.Background(), hulls, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Contains(array.NewIndex(4, 10)) {
		t.Error("gap between merged regions should be covered")
	}
}

func TestCarve3D(t *testing.T) {
	space := array.MustSpace(32, 32, 32)
	set := array.NewIndexSet(space)
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			for z := 0; z < 6; z++ {
				set.Add(array.NewIndex(x, y, z))
			}
		}
	}
	hulls, _, err := CarveStats(context.Background(), set, Config{CellSize: 8, CenterDistThresh: 20, BoundaryDistThresh: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(hulls) != 1 {
		t.Fatalf("3D block carved into %d hulls", len(hulls))
	}
	raster, _, err := RasterizeStats(context.Background(), hulls, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	if raster.Len() != 6*6*6 {
		t.Errorf("rasterized %d indices, want %d", raster.Len(), 6*6*6)
	}
}

func TestSimpleConvexCoversHole(t *testing.T) {
	// SC hulls everything at once: a two-cluster point set gets one
	// hull covering the space between — the precision failure Fig. 8
	// attributes to SC.
	space := array.MustSpace(64, 64)
	set := array.NewIndexSet(space)
	fill(t, set, 0, 0, 5, 5)
	fill(t, set, 58, 58, 63, 63)
	h, err := SimpleConvex(set)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Contains(geom.NewPoint(30, 30)) {
		t.Error("SC hull should cover the midpoint")
	}
}

func TestEmptyInputContract(t *testing.T) {
	// Carve and SimpleConvex agree on empty input: carving nothing
	// yields nothing — nil result, nil error (documented contract).
	space := array.MustSpace(64, 64)
	empty := array.NewIndexSet(space)
	hulls, _, err := CarveStats(context.Background(), empty, DefaultConfig())
	if err != nil || hulls != nil {
		t.Errorf("Carve(empty) = %v, %v; want nil, nil", hulls, err)
	}
	h, err := SimpleConvex(empty)
	if err != nil || h != nil {
		t.Errorf("SimpleConvex(empty) = %v, %v; want nil, nil", h, err)
	}
	naive, err := CarveNaive(empty, DefaultConfig())
	if err != nil || naive != nil {
		t.Errorf("CarveNaive(empty) = %v, %v; want nil, nil", naive, err)
	}
}

func TestCarveRecallInvariant(t *testing.T) {
	// Every observed point must be covered by the carved hulls
	// (rasterization of ℍ ⊇ IS): carving may over-approximate but
	// never drops observed indices.
	space := array.MustSpace(48, 48)
	set := array.NewIndexSet(space)
	// An irregular scatter.
	for i := 0; i < 200; i++ {
		set.AddLinear(int64((i * 37) % (48 * 48)))
	}
	hulls, _, err := CarveStats(context.Background(), set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raster, _, err := RasterizeStats(context.Background(), hulls, space, 1)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	set.Each(func(ix array.Index) bool {
		if !raster.Contains(ix) {
			missing++
			t.Errorf("observed index %v not covered by carved hulls", ix)
		}
		return missing < 5
	})
}

// TestCloseMergesOnEitherDistance keeps the CLOSE-predicate finding
// EXPERIMENTS.md cites: the default (OR) CLOSE merges two blocks whose
// hull centroids are further apart than CenterDistThresh, on boundary
// distance alone, so a conjunctive CLOSE would have refused them.
func TestCloseMergesOnEitherDistance(t *testing.T) {
	space := array.MustSpace(64, 64)
	cfg := DefaultConfig()
	carve := func(blocks ...[4]int) []*hull.Hull {
		set := array.NewIndexSet(space)
		for _, b := range blocks {
			fill(t, set, b[0], b[1], b[2], b[3])
		}
		hulls, _, err := CarveStats(context.Background(), set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return hulls
	}
	lower, upper := [4]int{0, 0, 15, 15}, [4]int{0, 22, 15, 37}
	if n := len(carve(lower, upper)); n != 1 {
		t.Fatalf("the two blocks carved to %d hulls, want 1", n)
	}
	a, b := carve(lower), carve(upper)
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("the blocks alone carved to %d and %d hulls, want 1 each", len(a), len(b))
	}
	if d := a[0].CenterDist(b[0]); d <= cfg.CenterDistThresh {
		t.Errorf("block centroids %.2f apart, want more than CenterDistThresh %v", d, cfg.CenterDistThresh)
	}
	if d := a[0].BoundaryDist(b[0]); d > cfg.BoundaryDistThresh {
		t.Errorf("block boundaries %.2f apart, want at most BoundaryDistThresh %v", d, cfg.BoundaryDistThresh)
	}
	if !cfg.close(a[0], b[0]) {
		t.Error("CLOSE refuses the two blocks")
	}
}

func TestSplitDeterministic(t *testing.T) {
	space := array.MustSpace(64, 64)
	set := array.NewIndexSet(space)
	fill(t, set, 0, 0, 40, 40)
	a := split(set, 16)
	b := split(set, 16)
	if len(a) != len(b) {
		t.Fatalf("split sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("cell %d sizes differ", i)
		}
	}
	// 41x41 points over 16-cells: cells 0..2 per axis = 9 cells.
	if len(a) != 9 {
		t.Errorf("split produced %d cells, want 9", len(a))
	}
}
