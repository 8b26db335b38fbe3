package carve

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/hull"
)

// sameHulls asserts the two hull sets are bit-identical: same count,
// same order, same vertices.
func sameHulls(t *testing.T, label string, got, want []*hull.Hull) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d hulls, reference has %d", label, len(got), len(want))
		return
	}
	for i := range got {
		gv, wv := got[i].Vertices(), want[i].Vertices()
		if len(gv) != len(wv) {
			t.Errorf("%s: hull %d has %d vertices, reference has %d", label, i, len(gv), len(wv))
			continue
		}
		for j := range gv {
			for k := range gv[j] {
				if gv[j][k] != wv[j][k] {
					t.Errorf("%s: hull %d vertex %d differs: %v vs %v", label, i, j, gv[j], wv[j])
					break
				}
			}
		}
	}
}

// randomCloud scatters n points over the space: half uniform, half in
// small clusters, so the carve sees both long merge chains and
// isolated hulls.
func randomCloud(t *testing.T, rng *rand.Rand, space array.Space, n int) *array.IndexSet {
	t.Helper()
	set := array.NewIndexSet(space)
	dims := space.Dims()
	addClamped := func(ix array.Index) {
		for k := range ix {
			if ix[k] < 0 {
				ix[k] = 0
			}
			if ix[k] >= dims[k] {
				ix[k] = dims[k] - 1
			}
		}
		if _, err := set.Add(ix); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/2; i++ {
		ix := make(array.Index, len(dims))
		for k := range ix {
			ix[k] = rng.Intn(dims[k])
		}
		addClamped(ix)
	}
	clusters := 4 + rng.Intn(6)
	for c := 0; c < clusters; c++ {
		center := make(array.Index, len(dims))
		for k := range center {
			center[k] = rng.Intn(dims[k])
		}
		for i := 0; i < n/(2*clusters)+1; i++ {
			ix := make(array.Index, len(dims))
			for k := range ix {
				ix[k] = center[k] + rng.Intn(13) - 6
			}
			addClamped(ix)
		}
	}
	return set
}

// TestEnginePinsNaiveReference is the determinism property test: over
// random point clouds, jittered thresholds, and worker counts {1, 4, 8},
// the candidate-pair engine must produce the identical hull set —
// count, order, and vertices — as the retained naive reference.
func TestEnginePinsNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 10
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		var space array.Space
		var n int
		if trial%3 == 2 {
			space = array.MustSpace(48, 48, 48)
			n = 150 + rng.Intn(150)
		} else {
			space = array.MustSpace(256, 256)
			n = 200 + rng.Intn(300)
		}
		set := randomCloud(t, rng, space, n)
		cfg := DefaultConfig()
		// Jitter the thresholds so the candidate radius varies
		// relative to the cell size.
		cfg.CenterDistThresh = 8 + float64(rng.Intn(25))
		cfg.BoundaryDistThresh = 4 + float64(rng.Intn(15))
		naive, err := CarveNaive(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, 8} {
			cfg.Workers = w
			hulls, _, err := CarveStats(context.Background(), set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d workers %d (%d points)", trial, w, set.Len())
			sameHulls(t, label, hulls, naive)
		}
	}
}

// blobField builds a synthetic 2-D point set with many well-separated
// multi-cell blobs: stride spaces the blobs beyond the merge
// thresholds, and each blob covers a few adjacent cells so the engine
// still performs merges.
func blobField(t testing.TB, space array.Space, cellSize, stride int) *array.IndexSet {
	t.Helper()
	set := array.NewIndexSet(space)
	dims := space.Dims()
	for r := cellSize; r+2*cellSize < dims[0]; r += stride {
		for c := cellSize; c+2*cellSize < dims[1]; c += stride {
			// A 2x2-cell L-shaped blob: three occupied cells.
			for _, off := range [][2]int{{0, 0}, {cellSize, 0}, {0, cellSize}} {
				for dr := 0; dr < 3; dr++ {
					for dc := 0; dc < 3; dc++ {
						if _, err := set.Add(array.NewIndex(r+off[0]+dr*5, c+off[1]+dc*5)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	return set
}

// TestCarveOutputSensitive is the acceptance check for the engine: on
// a synthetic 2-D point set producing well over 500 initial cell
// hulls, the engine must perform at least 10x fewer CLOSE pair tests
// than the naive pass-count × n² bound, while producing the identical
// hull set as the reference.
func TestCarveOutputSensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("naive reference on a 500-hull field is slow under -race")
	}
	space := array.MustSpace(1600, 1600)
	cfg := DefaultConfig()
	set := blobField(t, space, cfg.CellSize, 96)
	hulls, st, err := CarveStats(context.Background(), set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.InitialHulls < 500 {
		t.Fatalf("field produced only %d initial hulls, want >= 500", st.InitialHulls)
	}
	if st.Merges == 0 {
		t.Fatal("field produced no merges; the bound below would be trivial")
	}
	n := int64(st.InitialHulls)
	naiveBound := int64(st.MergePasses) * n * n
	if st.PairTests*10 > naiveBound {
		t.Errorf("engine ran %d pair tests; want >= 10x fewer than the naive bound %d (passes %d x %d^2)",
			st.PairTests, naiveBound, st.MergePasses, n)
	}
	naive, err := CarveNaive(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameHulls(t, "blob field", hulls, naive)
	t.Logf("hulls %d->%d, merges %d in %d passes, pair tests %d (naive bound %d, %.0fx fewer), prune hits %d",
		st.InitialHulls, st.FinalHulls, st.Merges, st.MergePasses,
		st.PairTests, naiveBound, float64(naiveBound)/float64(st.PairTests), st.PruneHits)
}

// TestCarveStatsCounters pins the engine's work accounting on a small
// deterministic field: pair tests at least cover the initial candidate
// generation, passes count dependent-merge depth (not one pass per
// merge), and the canceled-context path surfaces the context error.
func TestCarveStatsCounters(t *testing.T) {
	space := array.MustSpace(64, 64)
	set := array.NewIndexSet(space)
	// Two far-apart strips of two adjacent cells each: two independent
	// merges that a true fixpoint performs in ONE pass (the old
	// accounting would report 3 passes, one per merge plus the empty
	// one).
	for _, r0 := range []int{0, 40} {
		for c := 0; c < 30; c++ {
			for r := r0; r < r0+4; r++ {
				if _, err := set.Add(array.NewIndex(r, c)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	_, st, err := CarveStats(context.Background(), set, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalHulls != 2 {
		t.Fatalf("strips carved into %d hulls, want 2", st.FinalHulls)
	}
	if st.Merges != 2 {
		t.Errorf("merges = %d, want 2", st.Merges)
	}
	if st.MergePasses != 2 {
		t.Errorf("merge passes = %d, want 2 (both merges are independent: one merging pass + the empty one)",
			st.MergePasses)
	}
	if st.PairTests <= 0 {
		t.Error("no pair tests counted")
	}
}

// TestBBoxPrunePreservesClose pins the bbox lower bound: it must skip
// the O(V²) boundary scan exactly when it cannot change the verdict,
// and closeTest must agree with Config.close everywhere.
func TestBBoxPrunePreservesClose(t *testing.T) {
	mk := func(pts ...[2]float64) *hull.Hull {
		gp := make([]geom.Point, len(pts))
		for i, p := range pts {
			gp[i] = geom.NewPoint(p[0], p[1])
		}
		h, err := hull.New(gp)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Two elongated strips: x-ranges overlap so the bbox gap is the
	// 12-unit vertical offset — above the boundary threshold (10),
	// below the center threshold (20) — while the centroids are ~41
	// apart. The only decisive test is the boundary scan, and the bbox
	// bound resolves it without running it.
	a := mk([2]float64{0, 0}, [2]float64{60, 0})
	b := mk([2]float64{40, 12}, [2]float64{100, 12})
	cfg := DefaultConfig()
	e := newMergeEngine(cfg)
	if e.closeTest(a, b) {
		t.Error("strips should not be CLOSE")
	}
	if e.st.pruneHits != 1 {
		t.Errorf("prune hits = %d, want 1 (bbox bound should have skipped the boundary scan)", e.st.pruneHits)
	}
	if e.st.pairTests != 1 {
		t.Errorf("pair tests = %d, want 1", e.st.pairTests)
	}
	if cfg.close(a, b) {
		t.Error("Config.close disagrees with closeTest on the strips")
	}

	// Property: closeTest ≡ Config.close over random hull pairs.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var ph, qh []geom.Point
		for i := 0; i < 3+rng.Intn(5); i++ {
			ph = append(ph, geom.NewPoint(float64(rng.Intn(80)), float64(rng.Intn(80))))
		}
		off := float64(rng.Intn(40))
		for i := 0; i < 3+rng.Intn(5); i++ {
			qh = append(qh, geom.NewPoint(off+float64(rng.Intn(80)), off+float64(rng.Intn(80))))
		}
		hp, err := hull.New(ph)
		if err != nil {
			t.Fatal(err)
		}
		hq, err := hull.New(qh)
		if err != nil {
			t.Fatal(err)
		}
		c := Config{CellSize: 16, CenterDistThresh: float64(rng.Intn(30)), BoundaryDistThresh: float64(rng.Intn(20))}
		e := newMergeEngine(c)
		if got, want := e.closeTest(hp, hq), c.close(hp, hq); got != want {
			t.Fatalf("trial %d: closeTest = %v, Config.close = %v", trial, got, want)
		}
	}
}
