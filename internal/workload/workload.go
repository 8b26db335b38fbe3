// Package workload defines the benchmark programs Kondo is evaluated
// on and the access-model plumbing they run against.
//
// A Program models one containerized application X̄: it declares its
// parameter space Θ (paper §III) and, given a parameter value v, reads
// parts of a d-dimensional data array through an Accessor. Programs
// are deterministic functions of v — the paper's assumption that the
// accessed index set I_v depends only on v.
//
// Two Accessor implementations exist:
//
//   - VirtualAccessor records accessed indices without touching any
//     file. This mirrors the paper's experimental methodology (§V-C),
//     which replaces HDF5 read calls with loops that print the offsets
//     that would have been accessed.
//   - FileAccessor reads a real sdf dataset (optionally through the
//     trace layer), used for end-to-end carving and the audit-overhead
//     experiment (§V-D6).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/array"
	"repro/internal/sdf"
)

// Accessor is how a program touches its data array.
type Accessor interface {
	// Space returns the index space of the data array.
	Space() array.Space
	// ReadElement reads one element.
	ReadElement(ix array.Index) (float64, error)
	// ReadSlab reads the dense block of shape count anchored at start.
	// The values are valid until the accessor's next read.
	ReadSlab(start, count []int) ([]float64, error)
}

// Coverage receives branch-edge hits from instrumented programs. It is
// the hook the AFL baseline's code-coverage loop plugs into; Kondo
// itself never uses it (its fuzzer maximizes data coverage, not code
// coverage).
type Coverage interface {
	Hit(edge uint32)
}

// Env carries the execution environment of one program run.
type Env struct {
	Acc Accessor
	Cov Coverage
}

// Hit reports a branch-edge hit if a coverage sink is attached.
func (e *Env) Hit(edge uint32) {
	if e.Cov != nil {
		e.Cov.Hit(edge)
	}
}

// ParamRange is one dimension Θ_i of the parameter space: an inclusive
// integer interval. Programs receive float64 parameter values (the
// fuzzer mutates in ℝ) and round them; Lo and Hi bound the supported
// valuations the container creator advertises.
type ParamRange struct {
	Name string
	Lo   int
	Hi   int
}

// Width returns the number of integer valuations in the range.
func (r ParamRange) Width() int64 { return int64(r.Hi) - int64(r.Lo) + 1 }

// Contains reports whether the (rounded) value lies in the range.
func (r ParamRange) Contains(v float64) bool {
	iv := RoundParam(v)
	return iv >= r.Lo && iv <= r.Hi
}

// ParamSpace is the full parameter space Θ = (Θ_1, ..., Θ_m).
type ParamSpace []ParamRange

// Valuations returns |Θ|, the total number of integer parameter
// valuations.
func (ps ParamSpace) Valuations() int64 {
	n := int64(1)
	for _, r := range ps {
		n *= r.Width()
	}
	return n
}

// Contains reports whether v ∈ Θ.
func (ps ParamSpace) Contains(v []float64) bool {
	if len(v) != len(ps) {
		return false
	}
	for i, r := range ps {
		if !r.Contains(v[i]) {
			return false
		}
	}
	return true
}

// Sample draws one parameter value uniformly at random from Θ.
func (ps ParamSpace) Sample(rng *rand.Rand) []float64 {
	v := make([]float64, len(ps))
	for i, r := range ps {
		v[i] = float64(r.Lo + rng.Intn(int(r.Width())))
	}
	return v
}

// Clamp returns v with every coordinate clamped into its range.
func (ps ParamSpace) Clamp(v []float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = math.Max(float64(ps[i].Lo), math.Min(float64(ps[i].Hi), v[i]))
	}
	return out
}

// EachValuation enumerates every integer valuation of Θ in
// lexicographic order, calling fn with a reused slice; it stops early
// if fn returns false. This is the brute-force baseline's iteration
// order.
func (ps ParamSpace) EachValuation(fn func(v []float64) bool) {
	v := make([]float64, len(ps))
	cur := make([]int, len(ps))
	for i, r := range ps {
		cur[i] = r.Lo
	}
	for {
		for i := range cur {
			v[i] = float64(cur[i])
		}
		if !fn(v) {
			return
		}
		k := len(cur) - 1
		for k >= 0 {
			cur[k]++
			if cur[k] <= ps[k].Hi {
				break
			}
			cur[k] = ps[k].Lo
			k--
		}
		if k < 0 {
			return
		}
	}
}

// RoundParam converts a fuzzer-produced float parameter to the integer
// valuation the program actually runs with.
func RoundParam(v float64) int {
	return int(math.Round(v))
}

// Program is one benchmark application.
type Program interface {
	// Name is the benchmark identifier (CS1, PRL2D, ARD, ...).
	Name() string
	// Description explains the access pattern.
	Description() string
	// Space returns the data-array space the program expects.
	Space() array.Space
	// Params returns the program's parameter space Θ.
	Params() ParamSpace
	// Run executes the program on parameter value v against env.
	// Invalid or not-useful parameter values perform no reads and
	// return nil; I/O failures return an error.
	Run(v []float64, env *Env) error
}

// AnalyticTruth is implemented by programs whose ground-truth index
// subset I_Θ has a closed form. Programs without it get ground truth
// by exhaustive enumeration (see GroundTruth).
type AnalyticTruth interface {
	// InTruth reports whether ix ∈ I_Θ.
	InTruth(ix array.Index) bool
}

// VirtualAccessor records accessed indices without real I/O. Element
// values are synthesized from the index so programs can still compute
// on them.
type VirtualAccessor struct {
	space array.Space
	set   *array.IndexSet
}

// NewVirtualAccessor returns an accessor over space recording into a
// fresh index set.
func NewVirtualAccessor(space array.Space) *VirtualAccessor {
	return &VirtualAccessor{space: space, set: array.NewIndexSet(space)}
}

// Space implements Accessor.
func (a *VirtualAccessor) Space() array.Space { return a.space }

// Accessed returns the set of indices read so far.
func (a *VirtualAccessor) Accessed() *array.IndexSet { return a.set }

// ResetAccessed replaces the recording set with an empty one and
// returns the previous set.
func (a *VirtualAccessor) ResetAccessed() *array.IndexSet {
	old := a.set
	a.set = array.NewIndexSet(a.space)
	return old
}

// ReadElement implements Accessor.
func (a *VirtualAccessor) ReadElement(ix array.Index) (float64, error) {
	lin, err := a.space.Linear(ix)
	if err != nil {
		return 0, err
	}
	a.set.AddLinear(lin)
	return float64(lin), nil
}

// ReadSlab implements Accessor.
func (a *VirtualAccessor) ReadSlab(start, count []int) ([]float64, error) {
	sel := sdf.Slab(start, count)
	if err := sel.Validate(a.space); err != nil {
		return nil, err
	}
	out := make([]float64, 0, sel.NumElements())
	sel.Each(func(ix array.Index) bool {
		lin, _ := a.space.Linear(ix)
		a.set.AddLinear(lin)
		out = append(out, float64(lin))
		return true
	})
	return out, nil
}

// FileAccessor reads a real sdf dataset. Wrap the dataset's file in a
// trace.File to audit the accesses.
type FileAccessor struct {
	ds *sdf.Dataset
	// vals holds the last slab's values; each ReadSlab decodes into it,
	// so a run allocates its values once, not once per slab.
	vals []float64
}

// NewFileAccessor returns an accessor over the dataset.
func NewFileAccessor(ds *sdf.Dataset) *FileAccessor {
	return &FileAccessor{ds: ds}
}

// Space implements Accessor.
func (a *FileAccessor) Space() array.Space { return a.ds.Space() }

// ReadElement implements Accessor.
func (a *FileAccessor) ReadElement(ix array.Index) (float64, error) {
	return a.ds.ReadElement(ix)
}

// ReadSlab implements Accessor.
func (a *FileAccessor) ReadSlab(start, count []int) ([]float64, error) {
	vals, err := a.ds.ReadHyperslabInto(sdf.Slab(start, count), a.vals)
	if err != nil {
		return nil, err
	}
	a.vals = vals
	return vals, nil
}

// RunOnVirtual executes p on v against a fresh virtual accessor and
// returns the accessed index set I_v. This is the paper's debloat test
// (Def. 2): no actual data accesses are made.
func RunOnVirtual(p Program, v []float64) (*array.IndexSet, error) {
	acc := NewVirtualAccessor(p.Space())
	if err := p.Run(v, &Env{Acc: acc}); err != nil {
		return nil, fmt.Errorf("workload: %s(%v): %w", p.Name(), v, err)
	}
	return acc.Accessed(), nil
}
