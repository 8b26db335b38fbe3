package carve

import (
	"container/heap"
	"context"
	"math"

	"repro/internal/hull"
)

// maxGridCover bounds how many grid cells a single hull may register
// in. A hull whose expanded bounding box outgrows the bound (a merged
// hull spanning much of the space) moves to a catch-all bucket that is
// candidate-paired against every hull — still sound, just less
// selective — so grid registration stays O(1)-ish per hull instead of
// exploding in high dimensions.
const maxGridCover = 2048

// mergeStats are the merge stage's work counters: true fixpoint passes
// (longest dependent-merge chain + the final pass that finds nothing),
// merges performed, CLOSE pair evaluations, and boundary scans skipped
// by the bbox lower bound.
type mergeStats struct {
	passes    int
	merges    int
	pairTests int64
	pruneHits int64
}

// pairItem is one CLOSE pair in the engine's worklist. Pairs order
// lexicographically by the hulls' surviving-order keys, so draining
// the heap replays the naive algorithm's merge sequence (lowest
// surviving index wins) exactly. ida is always the id of the
// lower-key hull, the hull the merged one inherits its key from.
type pairItem struct {
	ka, kb   int // order keys, ka < kb
	ida, idb int // immutable hull ids; a dead id makes the pair stale
	depth    int // dependent-merge chain depth; initial pairs are 1
}

type pairHeap []pairItem

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
	if h[i].ka != h[j].ka {
		return h[i].ka < h[j].ka
	}
	return h[i].kb < h[j].kb
}
func (h pairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x any)   { *h = append(*h, x.(pairItem)) }
func (h *pairHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// mergeEngine is the output-sensitive CLOSE-merge fixpoint (paper
// §IV-B). A uniform spatial grid over hull bounding boxes proposes
// candidate neighbor pairs; only candidates are CLOSE-tested, close
// pairs enter a worklist ordered by surviving index, and a merge
// re-tests only pairs involving the merged hull. The invariant — the
// worklist always contains every CLOSE pair among live hulls (plus
// skippable stale entries) — makes the drained sequence identical to
// the naive restart-from-scratch scan at a fraction of the pair tests.
type mergeEngine struct {
	cfg Config
	// pruneRadius is the candidate cut-off: a pair whose bbox gap
	// exceeds it can never satisfy CLOSE (gap lower-bounds both the
	// boundary and the center distance).
	pruneRadius float64
	cellSide    float64

	hulls []*hull.Hull // by id; nil once merged away
	keys  []int        // by id: surviving-order key (array-position rank)
	inBig []bool       // by id: registered in the catch-all bucket

	// The grid spans the cells of the initial hulls' expanded bboxes. A
	// merged hull's vertices are its parts' vertices, so its cells lie
	// inside that span too. A cell is keyed by its row-major position in
	// the span (origin and strides per axis); should the span outgrow
	// an int, positions wrap, and cells sharing a key only propose extra
	// candidates, each of which is still CLOSE-tested.
	origin, strides []int
	grid            map[int][]int
	big             []int // ids registered in the catch-all bucket

	// neighbors' reused state: stamp[id] == epoch marks id as already
	// listed by the current call; lo, hi and cur hold a cell range.
	stamp       []int
	epoch       int
	nbuf        []int
	lo, hi, cur []int

	work pairHeap
	st   mergeStats
}

func newMergeEngine(cfg Config) *mergeEngine {
	r := math.Max(cfg.BoundaryDistThresh, cfg.CenterDistThresh)
	return &mergeEngine{
		cfg:         cfg,
		pruneRadius: r,
		cellSide:    math.Max(1, math.Max(r, float64(cfg.CellSize))),
		grid:        make(map[int][]int),
	}
}

// closeTest is Config.close with work accounting: every candidate
// evaluation counts as a pair test, and a boundary scan skipped by the
// bbox lower bound counts as a prune hit.
func (e *mergeEngine) closeTest(a, b *hull.Hull) bool {
	e.st.pairTests++
	if a.CenterDist(b) <= e.cfg.CenterDistThresh {
		return true
	}
	// Only the boundary test remains decisive; its O(V²) vertex scan
	// cannot pass the threshold when the bbox gap already exceeds it.
	if a.BBoxGap(b) > e.cfg.BoundaryDistThresh {
		e.st.pruneHits++
		return false
	}
	return a.BoundaryDist(b) <= e.cfg.BoundaryDistThresh
}

// cellRange sets e.lo and e.hi to the inclusive range of grid cells
// that h's bbox, expanded by pruneRadius/2 per side, overlaps: two
// hulls whose gap is within the prune radius then share a cell.
func (e *mergeEngine) cellRange(h *hull.Hull) {
	bb := h.BBox()
	for k := range bb.Min {
		e.lo[k] = int(math.Floor((bb.Min[k] - e.pruneRadius/2) / e.cellSide))
		e.hi[k] = int(math.Floor((bb.Max[k] + e.pruneRadius/2) / e.cellSide))
	}
}

// setGrid sizes the grid's span to the initial hulls' cell ranges.
func (e *mergeEngine) setGrid(hulls []*hull.Hull) {
	if len(hulls) == 0 {
		return
	}
	dim := len(hulls[0].BBox().Min)
	e.lo, e.hi, e.cur = make([]int, dim), make([]int, dim), make([]int, dim)
	e.origin, e.strides = make([]int, dim), make([]int, dim)
	top := make([]int, dim)
	for i, h := range hulls {
		e.cellRange(h)
		for k := range e.lo {
			if i == 0 || e.lo[k] < e.origin[k] {
				e.origin[k] = e.lo[k]
			}
			if i == 0 || e.hi[k] > top[k] {
				top[k] = e.hi[k]
			}
		}
	}
	stride := 1
	for k := dim - 1; k >= 0; k-- {
		e.strides[k] = stride
		stride *= top[k] - e.origin[k] + 1
	}
}

// firstCell starts a walk over the cells of e.lo..e.hi in row-major
// order and returns the first cell's key; nextCell steps the walk and
// reports false past the last cell.
func (e *mergeEngine) firstCell() int {
	copy(e.cur, e.lo)
	return e.cellKey()
}

func (e *mergeEngine) nextCell() (int, bool) {
	for k := len(e.cur) - 1; k >= 0; k-- {
		if e.cur[k]++; e.cur[k] <= e.hi[k] {
			return e.cellKey(), true
		}
		e.cur[k] = e.lo[k]
	}
	return 0, false
}

// cellKey is the grid key of cell e.cur.
func (e *mergeEngine) cellKey() int {
	key := 0
	for k, c := range e.cur {
		key += (c - e.origin[k]) * e.strides[k]
	}
	return key
}

// addHull registers a hull under the given surviving-order key and
// returns its id.
func (e *mergeEngine) addHull(h *hull.Hull, key int) int {
	id := len(e.hulls)
	e.hulls = append(e.hulls, h)
	e.keys = append(e.keys, key)
	e.stamp = append(e.stamp, 0)

	e.cellRange(h)
	cover := 1
	for k := range e.lo {
		if cover *= e.hi[k] - e.lo[k] + 1; cover > maxGridCover {
			e.inBig = append(e.inBig, true)
			e.big = append(e.big, id)
			return id
		}
	}
	e.inBig = append(e.inBig, false)
	for ck, ok := e.firstCell(), true; ok; ck, ok = e.nextCell() {
		e.grid[ck] = append(e.grid[ck], id)
	}
	return id
}

// neighbors returns the live candidate partners of id: hulls sharing a
// grid cell with it, plus every catch-all hull (and, for a catch-all
// hull, every live hull). The returned set is deduplicated; its order
// is irrelevant because every candidate is tested, never short-
// circuited. The slice is reused by the next call.
func (e *mergeEngine) neighbors(id int) []int {
	e.epoch++
	e.stamp[id] = e.epoch // id is not its own neighbor
	out := e.nbuf[:0]
	add := func(nb int) {
		if e.hulls[nb] != nil && e.stamp[nb] != e.epoch {
			e.stamp[nb] = e.epoch
			out = append(out, nb)
		}
	}
	if e.inBig[id] {
		for nb := range e.hulls {
			add(nb)
		}
	} else {
		e.cellRange(e.hulls[id])
		for ck, ok := e.firstCell(), true; ok; ck, ok = e.nextCell() {
			for _, nb := range e.grid[ck] {
				add(nb)
			}
		}
		for _, nb := range e.big {
			add(nb)
		}
	}
	e.nbuf = out
	return out
}

// push enqueues a CLOSE pair between the two ids, normalizing so the
// lower-key hull leads.
func (e *mergeEngine) push(ida, idb, depth int) {
	ka, kb := e.keys[ida], e.keys[idb]
	if kb < ka {
		ka, kb = kb, ka
		ida, idb = idb, ida
	}
	heap.Push(&e.work, pairItem{ka: ka, kb: kb, ida: ida, idb: idb, depth: depth})
}

// run drives the worklist to the fixpoint and returns the surviving
// hulls in surviving-order (identical to the naive array order).
func (e *mergeEngine) run(ctx context.Context, hulls []*hull.Hull) ([]*hull.Hull, mergeStats, error) {
	e.setGrid(hulls)
	for i, h := range hulls {
		e.addHull(h, i)
	}
	// Seed the worklist with every initially-CLOSE candidate pair.
	// Seed ids coincide with order keys, so nb < id visits each
	// unordered pair exactly once with the lower key leading.
	for id := range e.hulls {
		for _, nb := range e.neighbors(id) {
			if nb > id {
				continue
			}
			if e.closeTest(e.hulls[nb], e.hulls[id]) {
				e.push(nb, id, 1)
			}
		}
	}

	maxDepth := 0
	polls := 0
	for e.work.Len() > 0 {
		if polls++; polls%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, e.st, err
			}
		}
		it := heap.Pop(&e.work).(pairItem)
		a, b := e.hulls[it.ida], e.hulls[it.idb]
		if a == nil || b == nil {
			continue // stale: a constituent was merged away
		}
		m, err := hull.Merge(a, b)
		if err != nil {
			return nil, e.st, err
		}
		e.hulls[it.ida] = nil
		e.hulls[it.idb] = nil
		id := e.addHull(m, it.ka) // merged hull survives under the lower key
		e.st.merges++
		if it.depth > maxDepth {
			maxDepth = it.depth
		}
		for _, nb := range e.neighbors(id) {
			if e.closeTest(m, e.hulls[nb]) {
				e.push(id, nb, it.depth+1)
			}
		}
	}

	// Collect survivors in key order — the order the naive in-place
	// array ends up in, since a merged hull inherits the lower
	// participant's position.
	type keyed struct {
		key int
		h   *hull.Hull
	}
	var alive []keyed
	for id, h := range e.hulls {
		if h != nil {
			alive = append(alive, keyed{e.keys[id], h})
		}
	}
	for i := 1; i < len(alive); i++ {
		for j := i; j > 0 && alive[j].key < alive[j-1].key; j-- {
			alive[j], alive[j-1] = alive[j-1], alive[j]
		}
	}
	out := make([]*hull.Hull, len(alive))
	for i, k := range alive {
		out[i] = k.h
	}
	e.st.passes = maxDepth + 1 // + the pass that found nothing to merge
	return out, e.st, nil
}

// mergeAll iterates the CLOSE-merge loop of Alg. 2 to fixpoint through
// the candidate-pair engine. The result is bit-identical to the
// retained naive reference (mergeAllNaive): same hulls, same order,
// same vertices.
func mergeAll(ctx context.Context, hulls []*hull.Hull, cfg Config) ([]*hull.Hull, mergeStats, error) {
	return newMergeEngine(cfg).run(ctx, hulls)
}
