// Package baseline implements the comparison systems of paper §V-C:
// the brute-force enumerator (BF), a re-targeted coverage-guided
// fuzzer in the style of American Fuzzy Lop (AFL), and the
// Simple-Convex combination (SC) of Kondo's fuzzer with a single
// regular convex hull.
package baseline

import (
	"context"
	"time"

	"repro/internal/array"
	"repro/internal/workload"
)

// Result is the outcome of a baseline campaign, shaped like the
// fuzzer's result so the experiment harness can compare them
// uniformly.
type Result struct {
	// Indices is the union of accessed index sets over all executed
	// runs.
	Indices *array.IndexSet
	// Evaluations is the number of program runs executed.
	Evaluations int
	// Exhausted reports whether the whole parameter space was covered
	// (BF only; always false for AFL).
	Exhausted bool
	// Elapsed is the campaign's wall-clock duration.
	Elapsed time.Duration
}

// BruteForce executes the program on every parameter valuation of Θ in
// lexicographic order, recording accessed indices, until the budget
// runs out (paper §V-C: "BF computes the true and precise result, if
// given sufficient time"). A zero maxEvals leaves the run count
// unbounded. Canceling the context (or letting its deadline pass)
// stops the enumeration promptly and returns the partial result.
func BruteForce(ctx context.Context, p workload.Program, maxEvals int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &Result{Indices: array.NewIndexSet(p.Space()), Exhausted: true}
	acc := workload.NewVirtualAccessor(p.Space())
	env := &workload.Env{Acc: acc}
	var runErr error
	// Poll the context only every few runs: a virtual execution is
	// cheap enough that a poll per run would show.
	const ctxEvery = 64
	p.Params().EachValuation(func(v []float64) bool {
		if maxEvals > 0 && res.Evaluations >= maxEvals {
			res.Exhausted = false
			return false
		}
		if res.Evaluations%ctxEvery == 0 && ctx.Err() != nil {
			res.Exhausted = false
			return false
		}
		if err := p.Run(v, env); err != nil {
			runErr = err
			return false
		}
		res.Evaluations++
		return true
	})
	if runErr != nil {
		return nil, runErr
	}
	res.Indices = acc.Accessed()
	res.Elapsed = time.Since(start)
	return res, nil
}

// BruteForceUntil enumerates Θ lexicographically like BruteForce but
// invokes stop every checkEvery evaluations with the accumulated
// result; enumeration halts when stop returns true or the context is
// canceled. It is the incremental driver behind the Fig. 10
// time-to-recall comparison.
func BruteForceUntil(ctx context.Context, p workload.Program, checkEvery int, stop func(*Result) bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if checkEvery <= 0 {
		checkEvery = 64
	}
	start := time.Now()
	res := &Result{Exhausted: true}
	acc := workload.NewVirtualAccessor(p.Space())
	env := &workload.Env{Acc: acc}
	var runErr error
	p.Params().EachValuation(func(v []float64) bool {
		if err := p.Run(v, env); err != nil {
			runErr = err
			return false
		}
		res.Evaluations++
		if res.Evaluations%checkEvery == 0 {
			res.Indices = acc.Accessed()
			res.Elapsed = time.Since(start)
			if stop(res) || ctx.Err() != nil {
				res.Exhausted = false
				return false
			}
		}
		return true
	})
	if runErr != nil {
		return nil, runErr
	}
	res.Indices = acc.Accessed()
	res.Elapsed = time.Since(start)
	return res, nil
}
