package workload

import (
	"fmt"

	"repro/internal/array"
)

// blockEdgeBase spaces the instrumentation edge ids of the block
// programs away from other families.
const blockEdgeBase = 200

// PRL is the peripheral-read benchmark: the "rectangular shape with a
// hole" stencil of paper Table I. Each run reads the thickness-2
// border (2D) or shell (3D) of a parameterized box anchored at the
// origin. Because every box extent has a large minimum, the union over
// Θ leaves an unread hole behind the border bands — which a convex
// hull must cover, costing precision; the 3D minimum is chosen so the
// hole's volume share grows from 2D to 3D, matching §V-D2's "the hole
// enlarges in PRL3D".
type PRL struct {
	space array.Space
	dims  []int
	min   []int // minimum box extent per dimension
}

// NewPRL returns the PRL program over the given array extents (rank 2
// or 3).
func NewPRL(dims ...int) (*PRL, error) {
	if len(dims) != 2 && len(dims) != 3 {
		return nil, fmt.Errorf("workload: PRL wants rank 2 or 3, got %d", len(dims))
	}
	min := make([]int, len(dims))
	for k, d := range dims {
		if d < 16 {
			return nil, fmt.Errorf("workload: PRL extent %d too small", d)
		}
		if len(dims) == 2 {
			min[k] = d / 2
		} else {
			min[k] = 3 * d / 4
		}
	}
	return &PRL{space: array.MustSpace(dims...), dims: append([]int(nil), dims...), min: min}, nil
}

// MustPRL is NewPRL that panics on error.
func MustPRL(dims ...int) *PRL {
	p, err := NewPRL(dims...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Program.
func (p *PRL) Name() string {
	if len(p.dims) == 2 {
		return "PRL2D"
	}
	return "PRL3D"
}

// Description implements Program.
func (p *PRL) Description() string {
	return "peripheral read: thickness-2 border of an origin-anchored box (ring/shell with interior hole)"
}

// Space implements Program.
func (p *PRL) Space() array.Space { return p.space }

// Params implements Program: one box extent per dimension, each at
// least half and at most the full array extent.
func (p *PRL) Params() ParamSpace {
	ps := make(ParamSpace, len(p.dims))
	names := []string{"extent0", "extent1", "extent2"}
	for k := range p.dims {
		ps[k] = ParamRange{Name: names[k], Lo: p.min[k], Hi: p.dims[k]}
	}
	return ps
}

// Run implements Program.
func (p *PRL) Run(v []float64, env *Env) error {
	if len(v) != len(p.dims) {
		return fmt.Errorf("workload: %s wants %d parameters, got %d", p.Name(), len(p.dims), len(v))
	}
	ext := make([]int, len(v))
	for k := range v {
		ext[k] = RoundParam(v[k])
		if ext[k] < p.min[k] || ext[k] > p.dims[k] {
			env.Hit(blockEdgeBase + 0)
			return nil // outside Θ
		}
	}
	env.Hit(blockEdgeBase + 1)
	// For each dimension, read the two thickness-2 faces of the box
	// [0,ext) perpendicular to that dimension.
	rank := len(ext)
	for k := 0; k < rank; k++ {
		env.Hit(blockEdgeBase + 2 + uint32(k))
		for _, lo := range []int{0, ext[k] - 2} {
			start := make([]int, rank)
			count := make([]int, rank)
			for j := 0; j < rank; j++ {
				start[j] = 0
				count[j] = ext[j]
			}
			start[k] = lo
			count[k] = 2
			if _, err := env.Acc.ReadSlab(start, count); err != nil {
				return err
			}
		}
	}
	return nil
}

// InTruth implements AnalyticTruth: an index is ever read iff it lies
// within 2 of the array origin along some dimension, or at/after
// min-2 along some dimension (the sweep of that dimension's far
// face). The residual hole is the box [2, min_k-2)^d.
func (p *PRL) InTruth(ix array.Index) bool {
	for k, x := range ix {
		if x < 2 || x >= p.min[k]-2 {
			return true
		}
	}
	return false
}

// cornerKind discriminates the two corner-block benchmarks.
type cornerKind uint8

const (
	ldcKind cornerKind = iota // corners on the main (left) diagonal
	rdcKind                   // corners on the anti (right) diagonal
)

// CornerBlocks is the LDC/RDC benchmark family: each run reads two
// parameterized solid blocks at opposite corners of the array — the
// main diagonal's corners for LDC, the anti-diagonal's for RDC. Block
// extents are capped at a quarter of the array extent, so the two
// accessed regions stay clearly separated; Kondo's carver keeps them
// as distinct hulls and achieves precision 1 (paper §V-D2).
type CornerBlocks struct {
	kind  cornerKind
	space array.Space
	dims  []int
	max   []int // maximum block extent per dimension (= extent/4)
	// corners holds the two block anchor rules: for each dimension,
	// whether the block hugs the high end of that dimension, per
	// corner.
	corners [2][]bool
}

func newCornerBlocks(kind cornerKind, dims []int) (*CornerBlocks, error) {
	if len(dims) != 2 && len(dims) != 3 {
		return nil, fmt.Errorf("workload: corner blocks want rank 2 or 3, got %d", len(dims))
	}
	max := make([]int, len(dims))
	for k, d := range dims {
		if d < 16 {
			return nil, fmt.Errorf("workload: corner-block extent %d too small", d)
		}
		max[k] = d / 4
	}
	return &CornerBlocks{
		kind: kind, space: array.MustSpace(dims...), dims: append([]int(nil), dims...), max: max,
		corners: cornerAnchors(kind, len(dims)),
	}, nil
}

// NewLDC returns the left-diagonal-corners program (rank 2 or 3).
func NewLDC(dims ...int) (*CornerBlocks, error) { return newCornerBlocks(ldcKind, dims) }

// NewRDC returns the right-diagonal-corners program (rank 2 or 3).
func NewRDC(dims ...int) (*CornerBlocks, error) { return newCornerBlocks(rdcKind, dims) }

// MustLDC is NewLDC that panics on error.
func MustLDC(dims ...int) *CornerBlocks {
	p, err := NewLDC(dims...)
	if err != nil {
		panic(err)
	}
	return p
}

// MustRDC is NewRDC that panics on error.
func MustRDC(dims ...int) *CornerBlocks {
	p, err := NewRDC(dims...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Program.
func (p *CornerBlocks) Name() string {
	base := "LDC"
	if p.kind == rdcKind {
		base = "RDC"
	}
	if len(p.dims) == 2 {
		return base + "2D"
	}
	return base + "3D"
}

// Description implements Program.
func (p *CornerBlocks) Description() string {
	if p.kind == ldcKind {
		return "two solid blocks at the main-diagonal corners (disjoint subsets)"
	}
	return "two solid blocks at the anti-diagonal corners (disjoint subsets)"
}

// Space implements Program.
func (p *CornerBlocks) Space() array.Space { return p.space }

// Params implements Program: one block extent per dimension.
func (p *CornerBlocks) Params() ParamSpace {
	ps := make(ParamSpace, len(p.dims))
	names := []string{"block0", "block1", "block2"}
	for k := range p.dims {
		ps[k] = ParamRange{Name: names[k], Lo: 2, Hi: p.max[k]}
	}
	return ps
}

// cornerAnchors returns the two block anchor rules of a program of the
// given kind and rank: for each dimension, whether the block hugs the
// high end of that dimension, per corner.
func cornerAnchors(kind cornerKind, rank int) [2][]bool {
	first := make([]bool, rank)  // all-low corner (LDC) or mixed (RDC)
	second := make([]bool, rank) // opposite corner
	for k := 0; k < rank; k++ {
		second[k] = true
	}
	if kind == rdcKind {
		// Flip one axis: corners move to the anti-diagonal.
		first[rank-1] = true
		second[rank-1] = false
	}
	return [2][]bool{first, second}
}

// Run implements Program.
func (p *CornerBlocks) Run(v []float64, env *Env) error {
	if len(v) != len(p.dims) {
		return fmt.Errorf("workload: %s wants %d parameters, got %d", p.Name(), len(p.dims), len(v))
	}
	ext := make([]int, len(v))
	for k := range v {
		ext[k] = RoundParam(v[k])
		if ext[k] < 2 || ext[k] > p.max[k] {
			env.Hit(blockEdgeBase + 10)
			return nil // outside Θ
		}
	}
	env.Hit(blockEdgeBase + 11)
	for ci, high := range p.corners {
		env.Hit(blockEdgeBase + 12 + uint32(ci))
		start := make([]int, len(ext))
		for k := range ext {
			if high[k] {
				start[k] = p.dims[k] - ext[k]
			}
		}
		if _, err := env.Acc.ReadSlab(start, ext); err != nil {
			return err
		}
	}
	return nil
}

// InTruth implements AnalyticTruth: the union over Θ of each corner
// block is the full quarter-extent box at that corner.
func (p *CornerBlocks) InTruth(ix array.Index) bool {
	for _, high := range p.corners {
		in := true
		for k, x := range ix {
			if high[k] {
				if x < p.dims[k]-p.max[k] {
					in = false
					break
				}
			} else if x >= p.max[k] {
				in = false
				break
			}
		}
		if in {
			return true
		}
	}
	return false
}
