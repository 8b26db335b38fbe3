package carve

import (
	"container/heap"
	"context"
	"math"
	"strconv"
	"strings"

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
	grid  map[string][]int
	big   []int // ids registered in the catch-all bucket

	work pairHeap
	st   mergeStats
}

func newMergeEngine(cfg Config) *mergeEngine {
	r := math.Max(cfg.BoundaryDistThresh, cfg.CenterDistThresh)
	if cfg.Mode == CloseBoth {
		// Conjunction fails as soon as either distance exceeds its
		// threshold, and the gap lower-bounds both distances.
		r = math.Min(cfg.BoundaryDistThresh, cfg.CenterDistThresh)
	}
	return &mergeEngine{
		cfg:         cfg,
		pruneRadius: r,
		cellSide:    math.Max(1, math.Max(r, float64(cfg.CellSize))),
		grid:        make(map[string][]int),
	}
}

// closeTest is Config.close with work accounting: every candidate
// evaluation counts as a pair test, and a boundary scan skipped by the
// bbox lower bound counts as a prune hit.
func (e *mergeEngine) closeTest(a, b *hull.Hull) bool {
	e.st.pairTests++
	center := a.CenterDist(b) <= e.cfg.CenterDistThresh
	if e.cfg.Mode == CloseBoth {
		if !center {
			return false
		}
	} else if center {
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

// addHull registers a hull under the given surviving-order key and
// returns its id.
func (e *mergeEngine) addHull(h *hull.Hull, key int) int {
	id := len(e.hulls)
	e.hulls = append(e.hulls, h)
	e.keys = append(e.keys, key)

	// Register the bbox expanded by pruneRadius/2 per side: two hulls
	// whose gap is within the prune radius then share at least one
	// grid cell.
	bb := h.BBox()
	dim := len(bb.Min)
	lo := make([]int, dim)
	hi := make([]int, dim)
	cover := 1
	for k := 0; k < dim; k++ {
		lo[k] = int(math.Floor((bb.Min[k] - e.pruneRadius/2) / e.cellSide))
		hi[k] = int(math.Floor((bb.Max[k] + e.pruneRadius/2) / e.cellSide))
		cover *= hi[k] - lo[k] + 1
		if cover > maxGridCover {
			e.big = append(e.big, id)
			return id
		}
	}
	cur := append([]int(nil), lo...)
	for {
		ck := gridKey(cur)
		e.grid[ck] = append(e.grid[ck], id)
		k := dim - 1
		for k >= 0 {
			cur[k]++
			if cur[k] <= hi[k] {
				break
			}
			cur[k] = lo[k]
			k--
		}
		if k < 0 {
			return id
		}
	}
}

func gridKey(cell []int) string {
	var b strings.Builder
	for i, c := range cell {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// neighbors returns the live candidate partners of id: hulls sharing a
// grid cell with it, plus every catch-all hull (and, for a catch-all
// hull, every live hull). The returned set is deduplicated; its order
// is irrelevant because every candidate is tested, never short-
// circuited.
func (e *mergeEngine) neighbors(id int) []int {
	seen := make(map[int]bool)
	var out []int
	add := func(nb int) {
		if nb == id || seen[nb] || e.hulls[nb] == nil {
			return
		}
		seen[nb] = true
		out = append(out, nb)
	}
	inBig := false
	for _, b := range e.big {
		if b == id {
			inBig = true
			break
		}
	}
	if inBig {
		for nb := range e.hulls {
			add(nb)
		}
		return out
	}
	bb := e.hulls[id].BBox()
	dim := len(bb.Min)
	lo := make([]int, dim)
	hi := make([]int, dim)
	for k := 0; k < dim; k++ {
		lo[k] = int(math.Floor((bb.Min[k] - e.pruneRadius/2) / e.cellSide))
		hi[k] = int(math.Floor((bb.Max[k] + e.pruneRadius/2) / e.cellSide))
	}
	cur := append([]int(nil), lo...)
	for {
		for _, nb := range e.grid[gridKey(cur)] {
			add(nb)
		}
		k := dim - 1
		for k >= 0 {
			cur[k]++
			if cur[k] <= hi[k] {
				break
			}
			cur[k] = lo[k]
			k--
		}
		if k < 0 {
			break
		}
	}
	for _, nb := range e.big {
		add(nb)
	}
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
