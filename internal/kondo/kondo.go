// Package kondo wires Kondo's pipeline together (paper Fig. 3): sample
// initial parameter values from Θ, run debloat tests (virtual ones in
// Debloat, the caller's evaluator in DebloatWithEvaluator), expand
// the observed index set with the fuzzing schedule, carve the
// observations into a set of convex hulls, and rasterize the hulls
// into the approximated index subset I'_Θ that the debloated data file
// is built from.
package kondo

import (
	"context"
	"fmt"
	"time"

	"repro/internal/array"
	"repro/internal/carve"
	"repro/internal/fuzz"
	"repro/internal/hull"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Config configures one debloating run.
type Config struct {
	Fuzz  fuzz.Config
	Carve carve.Config
}

// DefaultConfig returns the paper's §V-B configuration for both
// stages.
func DefaultConfig() Config {
	return Config{Fuzz: fuzz.DefaultConfig(), Carve: carve.DefaultConfig()}
}

// Result is the outcome of one debloating run.
type Result struct {
	// Fuzz is the fuzzing campaign's outcome, including IS = ∪ I_v.
	Fuzz *fuzz.Result
	// Hulls is the carved hull set ℍ.
	Hulls []*hull.Hull
	// Approx is I'_Θ: the rasterized union of the hulls — the index
	// subset the debloated file keeps.
	Approx *array.IndexSet
	// CarveStats are the carve stage's hull-quality measurements.
	CarveStats carve.Stats
	// FuzzTime and CarveTime split the pipeline's wall-clock cost.
	FuzzTime  time.Duration
	CarveTime time.Duration
}

// Elapsed returns the total pipeline time.
func (r *Result) Elapsed() time.Duration { return r.FuzzTime + r.CarveTime }

// WasteRatio is |I'_Θ| / |IS|: how many indices the hulls keep per
// observed index. 1 means the hulls add nothing beyond the
// observations; large values mean convex over-approximation is
// keeping data no test ever touched. Zero when nothing was observed.
func (r *Result) WasteRatio() float64 {
	if r.Fuzz == nil || r.Approx == nil || r.Fuzz.Indices.Len() == 0 {
		return 0
	}
	return float64(r.Approx.Len()) / float64(r.Fuzz.Indices.Len())
}

// Debloat runs the full pipeline for a program using the virtual
// debloat test (the paper's fuzz/carve methodology, §V-C). The
// context bounds the whole pipeline: a canceled context stops the
// fuzz campaign within one batch, and the partial result (fuzz stage
// only, no hulls) is returned alongside the context's error.
func Debloat(ctx context.Context, p workload.Program, cfg Config) (*Result, error) {
	f, err := fuzz.ForProgram(p, cfg.Fuzz)
	if err != nil {
		return nil, err
	}
	return debloat(ctx, f, p.Space(), cfg)
}

// DebloatWithEvaluator runs the pipeline against a custom debloat-test
// evaluator (e.g. one auditing real file I/O through the trace layer).
func DebloatWithEvaluator(ctx context.Context, params workload.ParamSpace, space array.Space, eval fuzz.Evaluator, cfg Config) (*Result, error) {
	f, err := fuzz.New(params, space, eval, cfg.Fuzz)
	if err != nil {
		return nil, err
	}
	return debloat(ctx, f, space, cfg)
}

func debloat(ctx context.Context, f *fuzz.Fuzzer, space array.Space, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fuzzStart := time.Now()
	fuzzSpan := obs.Start(ctx, "kondo.fuzz")
	fres, err := f.Run(ctx)
	if fuzzSpan != nil && fres != nil {
		fuzzSpan.Arg("evals", fres.Evaluations).Arg("indices", fres.Indices.Len())
	}
	fuzzSpan.End()
	if err != nil {
		return nil, fmt.Errorf("kondo: fuzzing: %w", err)
	}
	fuzzTime := time.Since(fuzzStart)
	if err := ctx.Err(); err != nil {
		// Canceled mid-campaign: surface the fuzz stage's partial
		// observations without spending time carving them.
		return &Result{Fuzz: fres, FuzzTime: fuzzTime}, err
	}

	carveStart := time.Now()
	carveSpan := obs.Start(ctx, "kondo.carve")
	hulls, cstats, err := carve.CarveStats(ctx, fres.Indices, cfg.Carve)
	if carveSpan != nil {
		carveSpan.Arg("hulls", len(hulls))
	}
	carveSpan.End()
	if err != nil {
		return nil, fmt.Errorf("kondo: carving: %w", err)
	}
	rastSpan := obs.Start(ctx, "kondo.rasterize")
	approx, _, err := carve.RasterizeStats(ctx, hulls, space, cfg.Carve.Workers)
	if rastSpan != nil && approx != nil {
		rastSpan.Arg("indices", approx.Len())
	}
	rastSpan.End()
	if err != nil {
		return nil, fmt.Errorf("kondo: rasterizing: %w", err)
	}
	carveTime := time.Since(carveStart)

	res := &Result{
		Fuzz:       fres,
		Hulls:      hulls,
		Approx:     approx,
		CarveStats: cstats,
		FuzzTime:   fuzzTime,
		CarveTime:  carveTime,
	}
	reg := obs.RegistryOf(ctx)
	reg.Gauge("kondo_pipeline_kept_indices").Set(float64(approx.Len()))
	reg.Gauge("kondo_pipeline_waste_ratio").Set(res.WasteRatio())
	return res, nil
}
