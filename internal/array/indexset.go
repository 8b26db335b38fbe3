package array

import (
	"fmt"
	"sort"
)

// IndexSet is a set of indices within one Space. It is the
// representation of the paper's index subsets: I_v (accesses of one
// run), IS = ∪ I_v (accumulated fuzz observations), I_Θ (ground
// truth), and I'_Θ (the carved approximation). Indices are stored by
// their row-major linear position.
//
// The set is a sorted list of maximal inclusive [Lo, Hi] runs of
// linear positions. Producers that emit in ascending order (a slab's
// rows, the scanline rasterizer, an enumeration of the space) extend
// or append the last run in O(1); any other insert binary-searches
// its run. Union galloping-searches the receiver for each run of the
// other set, copies the untouched stretches between them in bulk, and
// reports the ranges it newly covers, so folding a small I_v into a
// large IS costs O(|I_v| log |IS|) searches plus one block copy.
// Every walk is in ascending row-major order.
//
// IndexSet is not safe for concurrent mutation.
type IndexSet struct {
	space Space
	// runs are sorted, pairwise disjoint, non-adjacent (maximal)
	// inclusive [Lo, Hi] spans.
	runs []Run
	// n is the cardinality, maintained incrementally so Len is O(1).
	n int64
	// scratch is a reusable buffer for unions, retained across calls so
	// the steady-state union does not allocate.
	scratch []Run
}

// Run is one inclusive span [Lo, Hi] of row-major linear positions.
type Run struct {
	Lo, Hi int64
}

// NewIndexSet returns an empty set over the given space.
func NewIndexSet(space Space) *IndexSet {
	return &IndexSet{space: space}
}

// Space returns the index space the set ranges over.
func (s *IndexSet) Space() Space { return s.space }

// Add inserts ix into the set. It reports whether the index was newly
// added (false if already present) and returns an error for indices
// outside the space.
func (s *IndexSet) Add(ix Index) (bool, error) {
	lin, err := s.space.Linear(ix)
	if err != nil {
		return false, err
	}
	return s.AddLinear(lin), nil
}

// AddLinear inserts a row-major linear position directly. Callers that
// already hold linear positions (e.g. the audit offset resolver) avoid
// the tuple round-trip.
func (s *IndexSet) AddLinear(lin int64) bool {
	if lin < 0 || lin >= s.space.Size() {
		return false
	}
	return s.addRun(lin, lin) > 0
}

// AddRun inserts the inclusive span [lo, hi] of linear positions and
// returns the number of newly added indices. This is the scanline
// rasterizer's emission primitive: a whole lattice row costs one
// ordered-interval insertion. The span must lie inside the space.
func (s *IndexSet) AddRun(lo, hi int64) (int64, error) {
	if lo > hi || lo < 0 || hi >= s.space.Size() {
		return 0, fmt.Errorf("array: run [%d, %d] out of range for space of size %d", lo, hi, s.space.Size())
	}
	return s.addRun(lo, hi), nil
}

// addRun inserts [lo, hi] and returns the count of newly covered
// positions. Appending at or beyond the tail — the scanline emission
// order — is O(1) amortized.
func (s *IndexSet) addRun(lo, hi int64) int64 {
	rs := s.runs
	if k := len(rs); k == 0 || lo > rs[k-1].Hi+1 {
		s.runs = append(rs, Run{lo, hi})
		s.n += hi - lo + 1
		return hi - lo + 1
	}
	if k := len(rs); lo >= rs[k-1].Lo {
		// Tail overlap/adjacency fast path (ascending emission). Runs
		// are sorted and disjoint, so only the last run can interact.
		last := &s.runs[k-1]
		if hi <= last.Hi {
			return 0
		}
		added := hi - last.Hi
		last.Hi = hi
		s.n += added
		return added
	}
	// General case: binary search for the first run that overlaps or
	// touches [lo, hi], merge the covered range, splice.
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi >= lo-1 })
	if rs[i].Lo > hi+1 {
		// Fully disjoint: insert at i.
		rs = append(rs, Run{})
		copy(rs[i+1:], rs[i:])
		rs[i] = Run{lo, hi}
		s.runs = rs
		s.n += hi - lo + 1
		return hi - lo + 1
	}
	nlo, nhi := lo, hi
	var covered int64
	j := i
	for j < len(rs) && rs[j].Lo <= hi+1 {
		nlo = min(nlo, rs[j].Lo)
		nhi = max(nhi, rs[j].Hi)
		if olo, ohi := max(rs[j].Lo, lo), min(rs[j].Hi, hi); olo <= ohi {
			covered += ohi - olo + 1
		}
		j++
	}
	added := (hi - lo + 1) - covered
	rs[i] = Run{nlo, nhi}
	if j > i+1 {
		rs = append(rs[:i+1], rs[j:]...)
	}
	s.runs = rs
	s.n += added
	return added
}

// Contains reports whether ix is in the set. Indices outside the space
// are never contained.
func (s *IndexSet) Contains(ix Index) bool {
	lin, err := s.space.Linear(ix)
	if err != nil {
		return false
	}
	return s.ContainsLinear(lin)
}

// ContainsLinear reports whether the linear position is in the set.
func (s *IndexSet) ContainsLinear(lin int64) bool {
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].Hi >= lin })
	return i < len(s.runs) && s.runs[i].Lo <= lin
}

// Len returns the number of indices in the set.
func (s *IndexSet) Len() int { return int(s.n) }

// Empty reports whether the set has no elements. A fuzz seed whose
// debloat test yields an empty set is a "not useful" parameter value
// (paper §IV).
func (s *IndexSet) Empty() bool { return s.n == 0 }

// Reset empties the set while retaining its run and scratch buffers,
// so refilling it does not re-allocate.
func (s *IndexSet) Reset() {
	s.runs = s.runs[:0]
	s.n = 0
}

// UnionWith adds every element of o into s. The two sets must range
// over the same space.
func (s *IndexSet) UnionWith(o *IndexSet) { s.union(o.runs, nil) }

// UnionWithNew adds every element of o into s, like UnionWith, and
// calls fn (if non-nil) once for each maximal range [lo, hi] of o's
// positions that s did not already hold — exactly o \ s before the
// call — in ascending order. It returns how many positions were added,
// which is also the growth of Len. The two sets must range over the
// same space.
func (s *IndexSet) UnionWithNew(o *IndexSet, fn func(lo, hi int64)) int64 {
	return s.union(o.runs, fn)
}

// EachRunNotIn calls fn for every maximal run of s \ o — the positions
// of s that o does not hold — in ascending order, stopping early if fn
// returns false. It only reads the two sets: for each run of s, a
// galloping search finds the runs of o it meets, so walking a small s
// against a large o costs O(|s| log |o|) and copies nothing. The two
// sets must range over the same space.
func (s *IndexSet) EachRunNotIn(o *IndexSet, fn func(lo, hi int64) bool) {
	b := o.runs
	j := 0 // b[:j] end before the current run of s
	for _, r := range s.runs {
		j += gallop(b[j:], r.Lo)
		pos := r.Lo // the first position of r not yet reported or covered
		for ; j < len(b) && b[j].Lo <= r.Hi; j++ {
			if b[j].Lo > pos && !fn(pos, b[j].Lo-1) {
				return
			}
			if b[j].Hi >= r.Hi {
				pos = r.Hi + 1 // b[j] may reach the next run of s too
				break
			}
			pos = b[j].Hi + 1
		}
		if pos <= r.Hi && !fn(pos, r.Hi) {
			return
		}
	}
}

// union merges the sorted run list b into s. Runs of s that no run of
// b reaches are found by galloping search and copied in bulk; a b run
// already inside one run of s changes nothing and copies nothing. The
// output is built in the retained scratch buffer and the two buffers
// are swapped, so the steady-state union performs no allocations. A
// scratch buffer that may be too small for the output is replaced
// before the merge by one sized to it plus a quarter, so a growing set
// allocates at most once per union.
func (s *IndexSet) union(b []Run, fn func(lo, hi int64)) int64 {
	if len(b) == 0 {
		return 0
	}
	a := s.runs
	if k := len(a); k == 0 || b[0].Lo > a[k-1].Hi+1 {
		// b lies wholly past s's tail: append in place.
		var added int64
		for _, r := range b {
			if fn != nil {
				fn(r.Lo, r.Hi)
			}
			added += r.Hi - r.Lo + 1
		}
		s.runs = append(a, b...)
		s.n += added
		return added
	}
	var (
		out   []Run // nil until the first change
		added int64
		i     int // a[:i] is already accounted for in out
	)
	for _, r := range b {
		// j: the first run of a that reaches r (overlaps or touches).
		j := i + gallop(a[i:], r.Lo-1)
		if out == nil && j < len(a) && a[j].Lo <= r.Lo && a[j].Hi >= r.Hi {
			continue // r is already covered and nothing has changed yet
		}
		if out == nil {
			if need := len(a) + len(b); cap(s.scratch) < need {
				s.scratch = make([]Run, 0, need+need/4)
			}
			out = s.scratch[:0]
		}
		out = append(out, a[i:j]...)
		i = j
		cur := r
		pos := r.Lo // the first position of r not known to be covered
		if k := len(out); k > 0 && out[k-1].Hi >= r.Lo-1 {
			// The previous merged run already reaches r.
			prev := out[k-1]
			out = out[:k-1]
			cur = Run{prev.Lo, max(prev.Hi, r.Hi)}
			pos = max(pos, prev.Hi+1)
		}
		for ; i < len(a) && a[i].Lo <= r.Hi+1; i++ {
			if a[i].Lo > pos {
				added += a[i].Lo - pos
				if fn != nil {
					fn(pos, a[i].Lo-1)
				}
			}
			pos = max(pos, a[i].Hi+1)
			cur.Lo = min(cur.Lo, a[i].Lo)
			cur.Hi = max(cur.Hi, a[i].Hi)
		}
		if pos <= r.Hi {
			added += r.Hi - pos + 1
			if fn != nil {
				fn(pos, r.Hi)
			}
		}
		out = append(out, cur)
	}
	if out == nil {
		return 0
	}
	out = append(out, a[i:]...)
	s.scratch = a[:0]
	s.runs = out
	s.n += added
	return added
}

// gallop returns the first k with rs[k].Hi >= target, or len(rs),
// probing exponentially from the front before a binary search, so a
// target near the start costs O(log k) rather than O(log len(rs)).
func gallop(rs []Run, target int64) int {
	hi := 1
	for hi < len(rs) && rs[hi-1].Hi < target {
		hi *= 2
	}
	lo := hi / 2
	hi = min(hi, len(rs))
	// Invariant: rs[:lo] end before target; the answer is in [lo, hi].
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rs[m].Hi < target {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// IntersectLen returns |s ∩ o| without materializing the
// intersection, overlapping the two run lists with a two-pointer walk.
// Precision and recall only need this cardinality.
func (s *IndexSet) IntersectLen(o *IndexSet) int {
	var n int64
	a, b := s.runs, o.runs
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if lo, hi := max(a[i].Lo, b[j].Lo), min(a[i].Hi, b[j].Hi); lo <= hi {
			n += hi - lo + 1
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return int(n)
}

// Each calls fn for every index in the set in ascending row-major
// order, stopping early if fn returns false. The Index passed to fn is
// fresh per call and may be retained.
func (s *IndexSet) Each(fn func(Index) bool) {
	s.EachLinear(func(lin int64) bool {
		ix, err := s.space.Unlinear(lin)
		if err != nil {
			return true // unreachable by construction
		}
		return fn(ix)
	})
}

// EachLinear calls fn for every linear position in the set in
// ascending order, stopping early if fn returns false.
func (s *IndexSet) EachLinear(fn func(int64) bool) {
	for _, r := range s.runs {
		for lin := r.Lo; lin <= r.Hi; lin++ {
			if !fn(lin) {
				return
			}
		}
	}
}

// EachRun calls fn for every maximal run of consecutive linear
// positions in ascending order, stopping early if fn returns false.
func (s *IndexSet) EachRun(fn func(lo, hi int64) bool) {
	for _, r := range s.runs {
		if !fn(r.Lo, r.Hi) {
			return
		}
	}
}

// RunCount returns the number of maximal runs the set stores. It is a
// fragmentation measure, not part of the set semantics.
func (s *IndexSet) RunCount() int { return len(s.runs) }

// Clone returns a deep copy of the set.
func (s *IndexSet) Clone() *IndexSet {
	return &IndexSet{space: s.space, runs: append([]Run(nil), s.runs...), n: s.n}
}

// Equal reports whether two sets over the same space hold exactly the
// same indices. Run lists are canonical, so equal sets have equal
// runs.
func (s *IndexSet) Equal(o *IndexSet) bool {
	if s.n != o.n || len(s.runs) != len(o.runs) {
		return false
	}
	for i, r := range s.runs {
		if o.runs[i] != r {
			return false
		}
	}
	return true
}
