// Package hull provides the convex-hull machinery behind Kondo's
// carver (paper §IV-B, Alg. 2): hull construction over d-dimensional
// index points, point-in-hull tests, the center/boundary distance
// measures the CLOSE predicate uses, hull merging, and rasterization
// of hulls back to index sets.
//
// 2D hulls use the monotone chain and exact polygon tests. 3D hulls
// enumerate face planes from extreme vertices. Any dimension (and all
// degenerate configurations) falls back to a small-phase-1 simplex LP
// deciding p ∈ conv(V) exactly in the feasibility sense.
package hull

import (
	"math"

	"repro/internal/geom"
)

// lpEps is the tolerance of the simplex feasibility solver. Index
// coordinates are small integers, so a fixed tolerance suffices.
const lpEps = 1e-7

// InConvexCombination reports whether p can be written as a convex
// combination of the given vertices: ∃λ ≥ 0 with Σλ = 1 and
// Σ λ_i v_i = p. It decides membership in conv(vertices) for any
// dimension and any degenerate vertex configuration. It is safe for
// concurrent use: each call takes its tableau from a pool.
//
// The implementation is a phase-1 simplex on the standard-form system
// with d+1 equality rows (one per coordinate plus the Σλ = 1 row) and
// one artificial variable per row; feasibility holds iff the artificial
// objective reaches zero.
func InConvexCombination(p geom.Point, vertices []geom.Point) bool {
	ws := workspaces.Get().(*workspace)
	in := ws.inConvexCombination(p, vertices)
	workspaces.Put(ws)
	return in
}

func (ws *workspace) inConvexCombination(p geom.Point, vertices []geom.Point) bool {
	if len(vertices) == 0 {
		return false
	}
	d := len(p)
	rows := d + 1
	n := len(vertices)

	// Tableau columns: n λ-variables, rows artificials, then RHS; the
	// objective row follows the constraint rows.
	cols := n + rows + 1
	size := (rows + 1) * cols
	if cap(ws.t) < size {
		ws.t = make([]float64, size)
	}
	t := ws.t[:size]
	clear(t)

	// Right-hand side must be non-negative for phase 1; flip rows as
	// needed. The RHS is p's coordinates, then 1 for the Σλ row.
	for i := 0; i < rows; i++ {
		rhs := 1.0
		if i < d {
			rhs = p[i]
		}
		sign := 1.0
		if rhs < 0 {
			sign = -1
		}
		row := t[i*cols : (i+1)*cols]
		for j := 0; j < n; j++ {
			var a float64
			if i < d {
				a = vertices[j][i]
			} else {
				a = 1
			}
			row[j] = sign * a
		}
		row[n+i] = 1 // artificial
		row[cols-1] = sign * rhs
	}

	// Objective: minimize sum of artificials. Express as maximizing
	// -Σ artificials; start by pricing out the artificial basis.
	obj := t[rows*cols:]
	for j := 0; j < cols; j++ {
		var s float64
		for i := 0; i < rows; i++ {
			s += t[i*cols+j]
		}
		obj[j] = -s
	}
	for i := 0; i < rows; i++ {
		obj[n+i] = 0
	}

	if cap(ws.basis) < rows {
		ws.basis = make([]int, rows)
	}
	basis := ws.basis[:rows]
	for i := range basis {
		basis[i] = n + i
	}

	// Simplex iterations with Bland's rule (no cycling).
	for iter := 0; iter < 10000; iter++ {
		// Entering variable: first column with negative reduced cost.
		enter := -1
		for j := 0; j < cols-1; j++ {
			if obj[j] < -lpEps {
				enter = j
				break
			}
		}
		if enter < 0 {
			break // optimal
		}
		// Ratio test.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < rows; i++ {
			if a := t[i*cols+enter]; a > lpEps {
				ratio := t[i*cols+cols-1] / a
				if ratio < best-lpEps || (math.Abs(ratio-best) <= lpEps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			break // unbounded (cannot happen for phase 1); treat as done
		}
		pivot(t, cols, leave, enter)
		basis[leave] = enter
	}

	// Feasible iff the artificial objective value is ~0. The objective
	// row's RHS holds -(sum of artificials in basis).
	return math.Abs(obj[cols-1]) <= 1e-6
}

// pivot performs a full tableau pivot on (row, col) of the flat
// tableau t with cols columns, including the objective row (the last
// row of t).
func pivot(t []float64, cols, row, col int) {
	pr := t[row*cols : (row+1)*cols]
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	for i := 0; i*cols < len(t); i++ {
		if i == row {
			continue
		}
		ri := t[i*cols : (i+1)*cols]
		f := ri[col]
		if f == 0 {
			continue
		}
		for j := range ri {
			ri[j] -= f * pr[j]
		}
	}
}
