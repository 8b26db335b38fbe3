// Package carve implements Kondo's bottom-up convex-hull carving
// algorithm (paper §IV-B, Alg. 2). Given the index points observed
// during fuzzing, it SPLITs the offset space into fixed-size cells,
// computes a convex hull per occupied cell, and repeatedly merges
// hulls that are CLOSE — by boundary distance while hulls are small,
// and by center distance once a hull has grown (the output-sensitive
// merge the paper contrasts with classical divide-and-conquer hull
// merging). The resulting hull set ℍ, rasterized, is the approximated
// index subset I'_Θ.
//
// The merge fixpoint runs on a candidate-pair engine (engine.go): a
// spatial grid proposes neighbor pairs, a bbox-distance lower bound
// prunes hopeless boundary scans, and a merge re-tests only pairs
// involving the merged hull — so the work scales with the observed
// hull neighborhoods, not with passes × n². The engine's output is
// bit-identical to the retained naive reference (naive.go).
//
// Empty input is not an error anywhere in this package: carving
// nothing yields nothing (nil hulls, nil error) from both Carve and
// SimpleConvex.
package carve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/hull"
	"repro/internal/obs"
)

// Config controls the carving algorithm. The distance thresholds are
// the paper's center_d_thresh and bound_d_thresh (Fig. 5), with §V-B
// defaults 20 and 10.
type Config struct {
	// CellSize is the edge length of the SPLIT grid cells in index
	// units.
	CellSize int
	// CenterDistThresh merges two hulls whose centroids are within
	// this distance.
	CenterDistThresh float64
	// BoundaryDistThresh merges two hulls whose nearest vertices are
	// within this distance.
	BoundaryDistThresh float64
	// Workers bounds the worker pool used for per-cell hull
	// construction and hull rasterization (0 or negative: one per
	// available CPU). The carve result is bit-identical at any worker
	// count; only wall-clock changes.
	Workers int
}

// DefaultConfig returns the paper's §V-B carving configuration.
func DefaultConfig() Config {
	return Config{
		CellSize:           16,
		CenterDistThresh:   20,
		BoundaryDistThresh: 10,
	}
}

func (c Config) validate() error {
	if c.CellSize <= 0 {
		return fmt.Errorf("carve: cell size %d must be positive", c.CellSize)
	}
	if c.CenterDistThresh < 0 || c.BoundaryDistThresh < 0 {
		return fmt.Errorf("carve: negative distance threshold")
	}
	return nil
}

// workers resolves the configured pool size against the machine.
func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// close is the paper's CLOSE predicate: two hulls merge when either
// distance test passes. Boundary distance drives the early merging of
// small neighbouring cell hulls; center distance lets a grown hull
// keep absorbing nearby small hulls whose vertices have drifted apart
// (§IV-B's discussion of output sensitivity). The O(V²)
// boundary-vertex scan only runs when the O(d) bbox gap — a lower
// bound on the boundary distance — could still pass the threshold.
func (c Config) close(a, b *hull.Hull) bool {
	if a.CenterDist(b) <= c.CenterDistThresh {
		return true
	}
	if a.BBoxGap(b) > c.BoundaryDistThresh {
		return false
	}
	return a.BoundaryDist(b) <= c.BoundaryDistThresh
}

// Stats are the hull-quality measurements of one carve invocation.
// The waste ratio (hull volume vs. observed indices) needs the
// rasterized set and is computed one level up, in internal/kondo.
type Stats struct {
	// Points is |IS|, the observed-index count carving started from.
	Points int
	// Cells is the number of occupied SPLIT grid cells.
	Cells int
	// InitialHulls is the per-cell hull count before merging
	// (= Cells today, but kept separate in case empty-hull cells are
	// ever dropped).
	InitialHulls int
	// FinalHulls is |ℍ| after the CLOSE-merge fixpoint.
	FinalHulls int
	// MergePasses is the number of true fixpoint passes: the longest
	// chain of dependent merges (a merge enabled by the hull produced
	// by the previous one) plus the final pass that found nothing to
	// merge. A pass may contain many independent merges.
	MergePasses int
	// Merges is the total number of pairwise hull merges performed.
	Merges int
	// PairTests is the number of CLOSE pair evaluations the engine
	// performed. The naive fixpoint would evaluate on the order of
	// MergePasses × InitialHulls² pairs; the candidate-pair engine
	// tests only grid-proposed neighbors.
	PairTests int64
	// PruneHits is the number of pair tests the bbox-distance lower
	// bound resolved without running the O(V²) boundary-vertex scan.
	PruneHits int64
}

// Shrinkage is the fraction of initial hulls eliminated by merging —
// 0 when nothing merged, approaching 1 when almost everything
// collapsed into a few hulls.
func (s Stats) Shrinkage() float64 {
	if s.InitialHulls == 0 {
		return 0
	}
	return float64(s.InitialHulls-s.FinalHulls) / float64(s.InitialHulls)
}

// CarveStats runs Alg. 2 on the observed index points IS and returns
// the merged hull set ℍ with the invocation's hull-quality Stats. An
// empty point set carves to nil hulls with nil error. When the context
// carries an obs trace, the SPLIT, per-cell hull and merge stages emit
// spans; when it carries a metrics registry, the stats are also
// published as kondo_carve_* instruments.
func CarveStats(ctx context.Context, points *array.IndexSet, cfg Config) ([]*hull.Hull, Stats, error) {
	var st Stats
	if err := cfg.validate(); err != nil {
		return nil, st, err
	}
	if points.Len() == 0 {
		return nil, st, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st.Points = points.Len()
	sp := obs.Start(ctx, "carve.split")
	cells := split(points, cfg.CellSize)
	st.Cells = len(cells)
	if sp != nil {
		sp.Arg("points", points.Len()).Arg("cells", len(cells))
	}
	sp.End()

	sp = obs.Start(ctx, "carve.cell-hulls")
	hulls, err := cellHulls(ctx, cells, cfg.workers())
	if err != nil {
		sp.End()
		return nil, st, err
	}
	st.InitialHulls = len(hulls)
	if sp != nil {
		hullPoints := 0
		for _, c := range cells {
			hullPoints += len(c)
		}
		sp.Arg("hulls", len(hulls)).Arg("workers", cfg.workers()).Arg("hull_points", hullPoints)
	}
	sp.End()

	sp = obs.Start(ctx, "carve.merge")
	hulls, ms, err := mergeAll(ctx, hulls, cfg)
	if sp != nil {
		sp.Arg("passes", ms.passes).Arg("merges", ms.merges).
			Arg("pair_tests", ms.pairTests).Arg("prune_hits", ms.pruneHits)
	}
	sp.End()
	if err != nil {
		return nil, st, err
	}
	st.MergePasses = ms.passes
	st.Merges = ms.merges
	st.PairTests = ms.pairTests
	st.PruneHits = ms.pruneHits
	st.FinalHulls = len(hulls)
	publishStats(ctx, st)
	return hulls, st, nil
}

// cellHulls builds one convex hull per occupied cell through a bounded
// worker pool, preserving deterministic cell order. hull.New is a pure
// function of its cell's points, so the result is identical at any
// worker count.
func cellHulls(ctx context.Context, cells [][]geom.Point, workers int) ([]*hull.Hull, error) {
	hulls := make([]*hull.Hull, len(cells))
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for i, cellPts := range cells {
			h, err := hull.New(cellPts)
			if err != nil {
				return nil, err
			}
			hulls[i] = h
		}
		return hulls, nil
	}
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) || errs[w] != nil {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				hulls[i], errs[w] = hull.New(cells[i])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return hulls, nil
}

// publishStats records one carve invocation's hull-quality stats in
// the context's metrics registry (a no-op without one).
func publishStats(ctx context.Context, st Stats) {
	reg := obs.RegistryOf(ctx)
	reg.Gauge("kondo_carve_points").Set(float64(st.Points))
	reg.Gauge("kondo_carve_cells").Set(float64(st.Cells))
	reg.Gauge("kondo_carve_hulls").Set(float64(st.FinalHulls))
	reg.Gauge("kondo_carve_merge_passes").Set(float64(st.MergePasses))
	reg.Gauge("kondo_carve_shrinkage").Set(st.Shrinkage())
	reg.Counter("kondo_carve_merges_total").Add(int64(st.Merges))
	reg.Counter("kondo_carve_pair_tests_total").Add(st.PairTests)
	reg.Counter("kondo_carve_prune_hits_total").Add(st.PruneHits)
}

// SimpleConvex is the paper's SC baseline: the fuzzer's points carved
// with a single regular convex hull (no cells, no merge thresholds).
// Like CarveStats, an empty point set yields a nil hull with nil error —
// callers must treat the nil hull as an empty approximation.
func SimpleConvex(points *array.IndexSet) (*hull.Hull, error) {
	if points.Len() == 0 {
		return nil, nil
	}
	return hull.New(collectPoints(points))
}

// split partitions the points into fixed-size grid cells (Alg. 2's
// SPLIT) and returns, per cell, the points its hull is built from:
// only those that can be hull vertices (lineFilter), in row-major
// order. Cells come in the order of their "[a b c]" cell-coordinate
// strings, which fixes the merge engine's order keys and so the merge
// sequence. The hull's vertex list does not depend on the order of a
// cell's points.
func split(points *array.IndexSet, cellSize int) [][]geom.Point {
	space := points.Space()
	f := newLineFilter(space)
	cells := splitLinear(points, cellSize)
	out := make([][]geom.Point, len(cells))
	for i, lins := range cells {
		out[i] = toPoints(space, f.extremes(lins))
	}
	return out
}

// splitLinear groups the points' linear indices by SPLIT cell, cells
// ordered as in split; within a cell they come in the set's iteration
// order. Points are grouped by integer cell id, and each cell's key
// string is formatted once, not once per point.
func splitLinear(points *array.IndexSet, cellSize int) [][]int64 {
	space := points.Space()
	rank := space.Rank()
	grid := make([]int64, rank) // cells per axis
	for k := range grid {
		grid[k] = int64((space.Dim(k) + cellSize - 1) / cellSize)
	}
	type cell struct {
		id   int64
		key  string
		lins []int64
	}
	byID := make(map[int64]*cell)
	var cells []*cell
	var c *cell // the previous point's cell, usually this point's too
	points.EachLinear(func(lin int64) bool {
		var id, mul int64 = 0, 1
		for k, rest := rank-1, lin; k >= 0; k-- {
			d := int64(space.Dim(k))
			id += (rest % d) / int64(cellSize) * mul
			rest /= d
			mul *= grid[k]
		}
		if c == nil || c.id != id {
			if c = byID[id]; c == nil {
				c = &cell{id: id}
				byID[id] = c
				cells = append(cells, c)
			}
		}
		c.lins = append(c.lins, lin)
		return true
	})
	coord := make(array.Index, rank)
	for _, c := range cells {
		id := c.id
		for k := rank - 1; k >= 0; k-- {
			coord[k] = int(id % grid[k])
			id /= grid[k]
		}
		c.key = coord.String()
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].key < cells[j].key })
	out := make([][]int64, len(cells))
	for i, c := range cells {
		out[i] = c.lins
	}
	return out
}

// lineFilter keeps the points that can be hull vertices. Take p
// strictly between q and r on an axis-parallel line: p = λq + (1−λ)r
// with 0 < λ < 1, so p is not a vertex. A point that is the minimum
// or maximum of its line along every axis may be one, so the filter
// keeps exactly those. It never drops a vertex, so the kept points
// have the same hull as all of them, while the hull's input shrinks
// from a cell's volume toward its surface.
//
// A line's ends live in one array per axis, indexed by the line's
// position among the axis-k lines through the points' bounding box, so
// a SPLIT cell's points use arrays of at most one cell face each. Each
// entry carries the epoch of the call that wrote it, so the arrays are
// reused across calls without clearing.
type lineFilter struct {
	dims  []int64      // the space's extent per axis
	lo    []int64      // the points' bbox: low corner per axis,
	ext   []int64      // and extent per axis
	ends  [][]lineEnds // per axis: line position → its first and last point
	epoch int
	// strides[k*rank+j] is axis j's stride in the row-major order of
	// the axis-k lines (0 for j = k).
	strides []int64
	// coords holds each point's box-local coordinates and lines its
	// line position per axis, rank per point.
	coords, lines []int64
}

// lineEnds are the smallest and largest linear index on one line, as
// of the call whose epoch they carry.
type lineEnds struct {
	lo, hi int64
	epoch  int
}

func newLineFilter(space array.Space) *lineFilter {
	rank := space.Rank()
	f := &lineFilter{
		dims:    make([]int64, rank),
		lo:      make([]int64, rank),
		ext:     make([]int64, rank),
		ends:    make([][]lineEnds, rank),
		strides: make([]int64, rank*rank),
	}
	for k := range f.dims {
		f.dims[k] = int64(space.Dim(k))
	}
	return f
}

// extremes filters distinct linear indices, in any order, in place and
// returns the kept ones in ascending order.
func (f *lineFilter) extremes(lins []int64) []int64 {
	if len(lins) == 0 {
		return lins
	}
	rank := len(f.dims)
	n := len(lins) * rank
	f.coords = slices.Grow(f.coords[:0], n)[:n]
	f.lines = slices.Grow(f.lines[:0], n)[:n]
	f.epoch++

	// The points' coordinates and bounding box.
	hi := f.ext // the box's high corner until the extents are known
	for i, lin := range lins {
		c := f.coords[i*rank : (i+1)*rank]
		for k := rank - 1; k >= 0; k-- {
			c[k] = lin % f.dims[k]
			lin /= f.dims[k]
			if i == 0 || c[k] < f.lo[k] {
				f.lo[k] = c[k]
			}
			if i == 0 || c[k] > hi[k] {
				hi[k] = c[k]
			}
		}
	}
	for k := range f.ext {
		f.ext[k] = hi[k] - f.lo[k] + 1
	}
	// The axis-k lines are the box-local coordinates without axis k, in
	// row-major order.
	for k := range f.ends {
		stride := int64(1)
		for j := rank - 1; j >= 0; j-- {
			if j == k {
				f.strides[k*rank+j] = 0
				continue
			}
			f.strides[k*rank+j] = stride
			stride *= f.ext[j]
		}
		f.ends[k] = slices.Grow(f.ends[k][:0], int(stride))[:stride]
	}

	// Record every line's ends.
	for i, lin := range lins {
		c := f.coords[i*rank : (i+1)*rank]
		for j := range c {
			c[j] -= f.lo[j]
		}
		lines := f.lines[i*rank : (i+1)*rank]
		for k := range lines {
			var line int64
			for j, x := range c {
				line += x * f.strides[k*rank+j]
			}
			lines[k] = line
			e := &f.ends[k][line]
			if e.epoch != f.epoch {
				*e = lineEnds{lin, lin, f.epoch}
			} else if lin < e.lo {
				e.lo = lin
			} else if lin > e.hi {
				e.hi = lin
			}
		}
	}
	kept := lins[:0]
next:
	for i, lin := range lins {
		for k, line := range f.lines[i*rank : (i+1)*rank] {
			if e := f.ends[k][line]; lin != e.lo && lin != e.hi {
				continue next
			}
		}
		kept = append(kept, lin)
	}
	slices.Sort(kept)
	return kept
}

// toPoints converts linear indices to geometric points.
func toPoints(space array.Space, lins []int64) []geom.Point {
	rank := space.Rank()
	coords := make([]float64, len(lins)*rank)
	out := make([]geom.Point, len(lins))
	for i, lin := range lins {
		p := geom.Point(coords[i*rank : (i+1)*rank : (i+1)*rank])
		for k := rank - 1; k >= 0; k-- {
			d := int64(space.Dim(k))
			p[k] = float64(lin % d)
			lin /= d
		}
		out[i] = p
	}
	return out
}

// collectPoints materializes an index set as the points the SC
// baseline's single hull is built from: every point that can be a
// vertex (lineFilter), in row-major order.
func collectPoints(points *array.IndexSet) []geom.Point {
	lins := make([]int64, 0, points.Len())
	points.EachLinear(func(lin int64) bool {
		lins = append(lins, lin)
		return true
	})
	space := points.Space()
	return toPoints(space, newLineFilter(space).extremes(lins))
}

// RasterizeStats converts a hull set into the approximated index
// subset I'_Θ over the data array's space, with the scanline work
// counters (rows, point tests, emitted runs) the bench regression gate
// tracks. Hulls are sharded across up to workers goroutines (0 or
// negative: one per available CPU) and the result is bit-identical at
// any worker count; a canceled context stops the walk.
func RasterizeStats(ctx context.Context, hulls []*hull.Hull, space array.Space, workers int) (*array.IndexSet, hull.RasterStats, error) {
	return hull.RasterizeAllStats(ctx, hulls, space, workers)
}
