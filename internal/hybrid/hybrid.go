// Package hybrid implements the schedule extension sketched in paper
// §VI: "let Kondo run for some more time and in parallel consult other
// fuzzing schedules, such as those available in AFL, to determine if
// any other missed offsets are detected." The hybrid runs Kondo's
// boundary-based campaign first, then spends a secondary budget on an
// AFL-style havoc phase seeded with the useful valuations Kondo found,
// merging any additional indices into the observation set before
// carving.
package hybrid

import (
	"context"
	"time"

	"repro/internal/array"
	"repro/internal/baseline"
	"repro/internal/fuzz"
	"repro/internal/workload"
)

// Config couples the two phases' budgets.
type Config struct {
	// Fuzz configures the primary Kondo campaign.
	Fuzz fuzz.Config
	// AFLBudget is the secondary havoc phase's test budget. Zero
	// disables the phase (pure Kondo).
	AFLBudget int
	// AFLSeed seeds the havoc phase's RNG.
	AFLSeed int64
}

// Result is the combined campaign outcome.
type Result struct {
	// Indices is the merged observation set of both phases.
	Indices *array.IndexSet
	// KondoIndices counts phase-1 observations; AFLAdded counts the
	// extra indices phase 2 contributed.
	KondoIndices, AFLAdded int
	// Evaluations sums both phases' debloat tests.
	Evaluations int
	// Elapsed is the total wall-clock duration.
	Elapsed time.Duration
}

// Run executes the two-phase hybrid campaign for a program. The
// context bounds both phases.
func Run(ctx context.Context, p workload.Program, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	f, err := fuzz.ForProgram(p, cfg.Fuzz)
	if err != nil {
		return nil, err
	}
	kres, err := f.Run(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Indices:      kres.Indices.Clone(),
		KondoIndices: kres.Indices.Len(),
		Evaluations:  kres.Evaluations,
	}
	if cfg.AFLBudget > 0 {
		ares, err := baseline.AFL(ctx, p, baseline.AFLConfig{MaxEvals: cfg.AFLBudget, Seed: cfg.AFLSeed})
		if err != nil {
			return nil, err
		}
		before := res.Indices.Len()
		res.Indices.UnionWith(ares.Indices)
		res.AFLAdded = res.Indices.Len() - before
		res.Evaluations += ares.Evaluations
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
