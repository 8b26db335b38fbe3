package hull

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Hull is the convex hull of a set of d-dimensional points, stored as
// its extreme vertices. Hulls are immutable once built; merging
// produces a new hull from the union of vertex sets, which is
// equivalent to hulling the union of the original point sets (paper
// §IV-B).
type Hull struct {
	dim   int
	verts []geom.Point
	bbox  geom.Box
	cent  geom.Point

	// faces is the halfspace description for 3D hulls; nil when the
	// vertices are affinely degenerate (then Contains uses the LP).
	// It is built lazily under facesOnce so concurrent Contains /
	// rasterization calls on a shared hull are race-free.
	facesOnce sync.Once
	faces     []halfspace

	// clip is the lazily built scanline clipper (scanline.go), also
	// guarded for concurrent rasterization.
	clipOnce sync.Once
	clip     *scanClipper
}

// New builds the convex hull of the given points. At least one point
// is required; all points must share a dimension.
func New(points []geom.Point) (*Hull, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("hull: no points")
	}
	dim := points[0].Dim()
	for _, p := range points[1:] {
		if p.Dim() != dim {
			return nil, fmt.Errorf("hull: mixed dimensions %d and %d", dim, p.Dim())
		}
	}
	h := &Hull{dim: dim}
	switch dim {
	case 2:
		h.verts = monotoneChain(points)
	default:
		h.verts = extremeVertices(points)
	}
	h.bbox = geom.BoundingBox(h.verts)
	h.cent = geom.Centroid(h.verts)
	return h, nil
}

// extremeVertices returns exactly the extreme points of the points'
// convex hull, in lexicographic order. It uses incremental LP
// membership: a point already inside the hull of the kept set is
// dropped, and the kept set is re-pruned at the end so points absorbed
// by later arrivals are removed too. Sorting the result makes the
// vertex list a function of the point set alone: neither the input
// order nor the visiting permutation shows in it. The vertices are
// copied into one block, so the hull shares no memory with points.
func extremeVertices(points []geom.Point) []geom.Point {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	// Visit points in a fixed pseudo-random permutation. The
	// incremental reduction is only fast when arrivals are scattered —
	// then the kept set stays near the true extreme set — and degrades
	// catastrophically on sorted lattice input, where nearly every
	// point is extreme for the prefix slab seen so far (a 16³ cell in
	// row-major order keeps thousands of candidates). The permutation
	// is a speed device only; the result does not depend on it.
	kept := ws.kept[:0]
	for _, pi := range ws.visitOrder(len(points)) {
		p := points[pi]
		if len(kept) > 0 && ws.inConvexCombination(p, kept) {
			continue
		}
		kept = append(kept, p)
	}
	// Final prune: drop any kept vertex inside the hull of the others.
	for i := 0; i < len(kept); {
		others := append(ws.others[:0], kept[:i]...)
		others = append(others, kept[i+1:]...)
		ws.others = others
		if len(others) > 0 && ws.inConvexCombination(kept[i], others) {
			kept = append(kept[:i], kept[i+1:]...)
			continue
		}
		i++
	}
	slices.SortFunc(kept, func(a, b geom.Point) int {
		switch {
		case a.Less(b):
			return -1
		case b.Less(a):
			return 1
		}
		return 0
	})
	dim := len(points[0])
	coords := make([]float64, len(kept)*dim)
	verts := make([]geom.Point, len(kept))
	for i, p := range kept {
		verts[i] = coords[i*dim : (i+1)*dim : (i+1)*dim]
		copy(verts[i], p)
	}
	// Drop the references to the caller's points before the workspace
	// goes back to the pool.
	clear(kept[:cap(kept)])
	clear(ws.others[:cap(ws.others)])
	ws.kept = kept[:0]
	return verts
}

// workspace is the reusable working memory of hull construction: the
// membership LP's flat row-major tableau and basis, and
// extremeVertices' visiting order and point lists. One goroutine uses
// a workspace at a time; the pool hands them out.
type workspace struct {
	t            []float64
	basis        []int
	kept, others []geom.Point

	// rng and draws replay the visiting permutation (visitOrder).
	rng         *rand.Rand
	draws, perm []int
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// visitOrder returns rand.New(rand.NewSource(1)).Perm(n) without
// seeding a source per call. Perm shuffles inside out, drawing
// j_i = Intn(i+1) for i = 0, 1, …, n-1, so its first n draws are the
// same for every n: the workspace keeps one growing prefix of draws
// and replays Perm(n) from it. The slice is reused by the next call.
func (ws *workspace) visitOrder(n int) []int {
	if ws.rng == nil {
		ws.rng = rand.New(rand.NewSource(1))
	}
	for i := len(ws.draws); i < n; i++ {
		ws.draws = append(ws.draws, ws.rng.Intn(i+1))
	}
	ws.perm = slices.Grow(ws.perm[:0], n)[:n]
	for i, j := range ws.draws[:n] {
		ws.perm[i] = ws.perm[j]
		ws.perm[j] = i
	}
	return ws.perm
}

// Merge returns the hull of the union of the two hulls' underlying
// point sets, computed from the union of their vertices.
func Merge(a, b *Hull) (*Hull, error) {
	if a.dim != b.dim {
		return nil, fmt.Errorf("hull: merge of %dD and %dD hulls", a.dim, b.dim)
	}
	pts := make([]geom.Point, 0, len(a.verts)+len(b.verts))
	pts = append(pts, a.verts...)
	pts = append(pts, b.verts...)
	return New(pts)
}

// Vertices returns the hull's extreme vertices: counter-clockwise from
// the lexicographically smallest in 2-D, lexicographic otherwise. In
// every dimension the list depends only on the hull's point set.
func (h *Hull) Vertices() []geom.Point { return h.verts }

// NumVertices returns the number of extreme vertices.
func (h *Hull) NumVertices() int { return len(h.verts) }

// Centroid returns the centroid of the hull's vertices — the "hull
// center" of the paper's CLOSE predicate.
func (h *Hull) Centroid() geom.Point { return h.cent }

// BBox returns the hull's axis-aligned bounding box.
func (h *Hull) BBox() geom.Box { return h.bbox }

// Contains reports whether p lies inside or on the hull. It is safe
// for concurrent use.
func (h *Hull) Contains(p geom.Point) bool {
	if p.Dim() != h.dim {
		return false
	}
	if !h.bbox.Contains(p) {
		return false
	}
	switch {
	case len(h.verts) == 1:
		return p.ApproxEqual(h.verts[0], geom.Eps)
	case len(h.verts) == 2:
		return geom.SegmentDist2(p, h.verts[0], h.verts[1]) <= geom.Eps
	case h.dim == 2:
		return inPolygonCCW(p, h.verts)
	case h.dim == 3:
		if faces := h.faceCache(); faces != nil {
			return inHalfspaces(p, faces)
		}
		return InConvexCombination(p, h.verts)
	default:
		return InConvexCombination(p, h.verts)
	}
}

// faceCache builds the 3D halfspace description at most once. The
// sync.Once guard makes concurrent first calls (parallel
// rasterization workers sharing a hull) race-free.
func (h *Hull) faceCache() []halfspace {
	h.facesOnce.Do(func() {
		if h.dim == 3 {
			h.faces = facesFromVertices(h.verts)
		}
	})
	return h.faces
}

// CenterDist returns the distance between the two hulls' centers.
func (h *Hull) CenterDist(o *Hull) float64 {
	return h.cent.Dist(o.cent)
}

// BBoxGap returns the distance between the two hulls' bounding boxes.
// Every vertex lies inside its hull's bbox, so this is a lower bound
// on BoundaryDist computable in O(d) instead of O(V²) — the carve
// engine uses it to skip boundary scans that cannot pass the CLOSE
// threshold.
func (h *Hull) BBoxGap(o *Hull) float64 {
	return h.bbox.Gap(o.bbox)
}

// BoundaryDist returns the minimum distance between the two hulls'
// vertex sets — the paper's hull-boundary distance. It compares
// squared distances and takes one square root at the end; sqrt is
// monotone and correctly rounded, so the result is bit-identical to
// the minimum of the per-pair distances.
func (h *Hull) BoundaryDist(o *Hull) float64 {
	best := math.Inf(1)
	for _, u := range h.verts {
		for _, v := range o.verts {
			if d := u.Dist2(v); d < best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}

// RasterStats counts the work one rasterization performed. All fields
// are deterministic functions of the hulls and the space — per-hull
// counts are independent of worker scheduling, and the totals are
// sums over hulls — so they serve as regression-gate metrics
// (`make bench-check`).
type RasterStats struct {
	// Hulls is the number of hulls rasterized.
	Hulls int64
	// Rows is the number of lattice rows visited (for a scanline hull,
	// one per row of its clipped bbox; the point-by-point fallback
	// counts its rows the same way).
	Rows int64
	// PointTests is the number of exact point-membership tests
	// performed: endpoint refinements on the scanline path, every
	// lattice point on the fallback path. The bbox scan this replaces
	// tested every point of every hull's clipped bbox.
	PointTests int64
	// Runs is the number of index runs emitted into the result set.
	Runs int64
}

// add accumulates o into s.
func (s *RasterStats) add(o RasterStats) {
	s.Hulls += o.Hulls
	s.Rows += o.Rows
	s.PointTests += o.PointTests
	s.Runs += o.Runs
}

// RasterizeContext collects every integer index of the space that
// lies inside the hull. This converts the carver's hull set back into
// the approximated index subset I'_Θ. A canceled context stops the
// lattice walk mid-hull and returns the context's error.
func (h *Hull) RasterizeContext(ctx context.Context, space array.Space) (*array.IndexSet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	set := array.NewIndexSet(space)
	var st RasterStats
	if err := h.rasterizeInto(ctx, space, set, &st); err != nil {
		return nil, err
	}
	return set, nil
}

// clipToSpace intersects the hull's bbox with the space's lattice,
// returning per-dimension inclusive bounds and ok=false when the hull
// lies entirely outside the space.
func (h *Hull) clipToSpace(space array.Space, lo, hi []int) bool {
	for k := 0; k < h.dim; k++ {
		lo[k] = int(math.Ceil(h.bbox.Min[k] - geom.Eps))
		hi[k] = int(math.Floor(h.bbox.Max[k] + geom.Eps))
		if lo[k] < 0 {
			lo[k] = 0
		}
		if hi[k] > space.Dim(k)-1 {
			hi[k] = space.Dim(k) - 1
		}
		if lo[k] > hi[k] {
			return false
		}
	}
	return true
}

// rasterizeInto adds the hull's covered indices to an existing set
// using scanline rasterization: for each lattice row (all coordinates
// fixed but the innermost) the row's membership interval is clipped
// against the hull's constraint description in O(faces), its
// endpoints are refined with the exact Contains test, and the whole
// run is emitted at once. Hulls without a constraint description
// (1–2 vertices, degenerate 3-D, dimensions other than 2/3) fall back
// to the point-by-point scan. The context is checked periodically so
// a canceled caller stops a large lattice walk mid-hull.
func (h *Hull) rasterizeInto(ctx context.Context, space array.Space, set *array.IndexSet, st *RasterStats) error {
	if space.Rank() != h.dim {
		return fmt.Errorf("hull: rasterize %dD hull over rank-%d space", h.dim, space.Rank())
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st.Hulls++
	lo := make([]int, h.dim)
	hi := make([]int, h.dim)
	if !h.clipToSpace(space, lo, hi) {
		return nil // hull entirely outside the space
	}
	cl := h.clipper()
	if !cl.ok {
		return h.rasterizePointwise(ctx, space, set, lo, hi, st)
	}

	d := h.dim
	// Row-major strides: the innermost dimension has stride 1, so a
	// row's covered interval is one contiguous linear run.
	strides := make([]int64, d)
	strides[d-1] = 1
	for k := d - 2; k >= 0; k-- {
		strides[k] = strides[k+1] * int64(space.Dim(k+1))
	}
	cur := append([]int(nil), lo[:d-1]...)
	row := make([]float64, d-1)
	probe := make(geom.Point, d)
	rowLo, rowHi := int64(lo[d-1]), int64(hi[d-1])
	for {
		if st.Rows++; st.Rows%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		var base int64
		for k := 0; k < d-1; k++ {
			row[k] = float64(cur[k])
			probe[k] = row[k]
			base += int64(cur[k]) * strides[k]
		}
		if rlo, rhi, ok := cl.rowInterval(row, rowLo, rowHi); ok {
			// Refine the conservative interval's endpoints with the
			// exact membership test. The row's true membership set is
			// an interval (scanline.go), so the refined run is
			// bit-identical to testing every lattice point.
			for rlo <= rhi {
				probe[d-1] = float64(rlo)
				st.PointTests++
				if h.Contains(probe) {
					break
				}
				rlo++
			}
			if rlo <= rhi {
				for rhi > rlo {
					probe[d-1] = float64(rhi)
					st.PointTests++
					if h.Contains(probe) {
						break
					}
					rhi--
				}
				if _, err := set.AddRun(base+rlo, base+rhi); err != nil {
					return err
				}
				st.Runs++
			}
		}
		k := d - 2
		for k >= 0 {
			cur[k]++
			if cur[k] <= hi[k] {
				break
			}
			cur[k] = lo[k]
			k--
		}
		if k < 0 {
			return nil
		}
	}
}

// rasterizePointwise is the retained point-by-point reference: it
// tests every lattice point of the clipped bbox against Contains.
// Degenerate hulls use it directly, and RasterizeReference exposes it
// as the oracle the scanline path is property-tested against.
func (h *Hull) rasterizePointwise(ctx context.Context, space array.Space, set *array.IndexSet, lo, hi []int, st *RasterStats) error {
	cur := append([]int(nil), lo...)
	p := make(geom.Point, h.dim)
	ix := make(array.Index, h.dim)
	last := h.dim - 1
	for {
		if cur[last] == lo[last] {
			if st.Rows++; st.Rows%256 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		for k := 0; k < h.dim; k++ {
			p[k] = float64(cur[k])
			ix[k] = cur[k]
		}
		st.PointTests++
		if h.Contains(p) {
			if _, err := set.Add(ix); err != nil {
				return err
			}
		}
		k := last
		for k >= 0 {
			cur[k]++
			if cur[k] <= hi[k] {
				break
			}
			cur[k] = lo[k]
			k--
		}
		if k < 0 {
			return nil
		}
	}
}

// RasterizeReference rasterizes hulls with the point-by-point bbox
// scan — the pre-scanline algorithm, kept as the equivalence oracle
// and as the bench baseline for the point-test reduction headline.
func RasterizeReference(ctx context.Context, hulls []*Hull, space array.Space) (*array.IndexSet, RasterStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var st RasterStats
	set := array.NewIndexSet(space)
	lo := make([]int, space.Rank())
	hi := make([]int, space.Rank())
	for _, h := range hulls {
		if space.Rank() != h.dim {
			return nil, st, fmt.Errorf("hull: rasterize %dD hull over rank-%d space", h.dim, space.Rank())
		}
		st.Hulls++
		if !h.clipToSpace(space, lo, hi) {
			continue
		}
		if err := h.rasterizePointwise(ctx, space, set, lo, hi, &st); err != nil {
			return nil, st, err
		}
	}
	return set, st, nil
}

// RasterizeAllStats rasterizes a set of hulls into one index set (the
// union of their covered indices) and returns the scanline work
// counters. Hulls are sharded across up to workers goroutines (0 or
// negative means one per available CPU), each rasterizing into a
// private index set, and the per-worker sets are unioned in worker
// order. Index-set union is commutative, so the result is bit-identical
// at any worker count. When the context carries a metrics registry the
// counters are published as kondo_raster_* instruments. On error the
// stats cover the work performed before the stop.
//
// A failing hull (error or cancellation) stops the whole
// rasterization promptly: the shared first-error signal keeps the
// remaining workers from draining the hull list, and an internal
// cancellation aborts their in-flight lattice walks. A canceled
// context returns the context's error.
func RasterizeAllStats(ctx context.Context, hulls []*Hull, space array.Space, workers int) (*array.IndexSet, RasterStats, error) {
	var st RasterStats
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(hulls) {
		workers = len(hulls)
	}
	if workers <= 1 {
		set := array.NewIndexSet(space)
		for _, h := range hulls {
			if err := h.rasterizeInto(ctx, space, set, &st); err != nil {
				return nil, st, err
			}
		}
		publishRasterStats(ctx, st)
		return set, st, nil
	}
	rctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	sets := make([]*array.IndexSet, workers)
	stats := make([]RasterStats, workers)
	errs := make([]error, workers)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			set := array.NewIndexSet(space)
			sets[w] = set
			for {
				i := int(next.Add(1)) - 1
				if i >= len(hulls) || failed.Load() {
					return
				}
				if err := hulls[i].rasterizeInto(rctx, space, set, &stats[w]); err != nil {
					errs[w] = err
					failed.Store(true)
					stopWorkers() // abort the other workers' in-flight walks
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, ws := range stats {
		st.add(ws)
	}
	if err := firstRasterError(ctx, errs); err != nil {
		return nil, st, err
	}
	// Union into the largest per-worker set so the merge re-inserts as
	// few indices as possible. Union is commutative, so the result is
	// still worker-count independent.
	out := sets[0]
	for _, set := range sets[1:] {
		if set.Len() > out.Len() {
			out = set
		}
	}
	for _, set := range sets {
		if set != out {
			out.UnionWith(set)
		}
	}
	publishRasterStats(ctx, st)
	return out, st, nil
}

// firstRasterError picks the error to report: a worker's own failure
// wins over the context cancellations it induced in its peers, and an
// outer-context cancellation is reported as such.
func firstRasterError(ctx context.Context, errs []error) error {
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return err
	}
	if ctxErr == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ctxErr
}

// publishRasterStats records the counters in the context's metrics
// registry (a no-op without one).
func publishRasterStats(ctx context.Context, st RasterStats) {
	reg := obs.RegistryOf(ctx)
	reg.Counter("kondo_raster_rows_total").Add(st.Rows)
	reg.Counter("kondo_raster_point_tests_total").Add(st.PointTests)
	reg.Counter("kondo_raster_runs_total").Add(st.Runs)
}
