package bench

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/fuzz"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Curve traces recall as a function of the number of debloat tests for
// Kondo, BF and AFL on one program — the trajectory underlying the
// Fig. 7 endpoints and the Fig. 10 budget gaps.
func Curve(ctx context.Context, opts Options) (*Report, error) {
	p := workload.MustCS(2, opts.Size2D)
	gt, err := groundTruth(p)
	if err != nil {
		return nil, err
	}
	budget := opts.EvalBudget
	checkpoints := 10
	step := budget / checkpoints

	rep := &Report{
		Columns: []string{"tests", "Kondo raw", "Kondo carved", "BF recall", "AFL recall"},
		Notes: []string{
			fmt.Sprintf("program: %s; raw = accumulated observations, carved = after hulls", p.Name()),
			"expected shape: carving closes the gap between sparse observations and full",
			"recall early; AFL's curve flattens lowest; BF's raw sweep is dense but cannot",
			"generalize (and falls behind as |Θ| outgrows the budget)",
		},
	}

	// Kondo's fuzzer exposes the cumulative curve directly.
	fcfg := fuzzCfg(opts, opts.Seed)
	fcfg.StopIter = 0
	fcfg.MaxIter = 4 * budget
	f, err := fuzz.ForProgram(p, fcfg)
	if err != nil {
		return nil, err
	}
	kres, err := f.Run(ctx)
	if err != nil {
		return nil, err
	}
	truthLen := float64(gt.Len())
	kondoAt := func(tests int) float64 {
		if len(kres.Curve) == 0 {
			return 0
		}
		i := tests - 1
		if i >= len(kres.Curve) {
			i = len(kres.Curve) - 1
		}
		// Observed IS is always a subset of truth for exact debloat
		// tests, so |IS|/|I_Θ| is the recall.
		return float64(kres.Curve[i]) / truthLen
	}

	// BF: sample recall at each checkpoint via the incremental driver.
	bfAt := make(map[int]float64)
	next := step
	_, err = baseline.BruteForceUntil(ctx, p, step, func(r *baseline.Result) bool {
		if r.Evaluations >= next {
			bfAt[next] = metrics.Recall(gt, r.Indices)
			next += step
		}
		return r.Evaluations >= budget
	})
	if err != nil {
		return nil, err
	}

	// AFL: same sampling through its progress hook.
	aflAt := make(map[int]float64)
	aflNext := step
	acfg := baseline.AFLConfig{Seed: opts.Seed, MaxEvals: budget, ProgressEvery: step}
	acfg.Progress = func(r *baseline.Result) bool {
		if r.Evaluations >= aflNext {
			aflAt[aflNext] = metrics.Recall(gt, r.Indices)
			aflNext += step
		}
		return false
	}
	ares, err := baseline.AFL(ctx, p, acfg)
	if err != nil {
		return nil, err
	}
	finalAFL := metrics.Recall(gt, ares.Indices)

	// Carved recall at each checkpoint: re-run the pipeline with the
	// checkpoint's budget (the fuzzer is seeded, so each prefix run
	// retraces the same campaign).
	carvedAt := func(tests int) (float64, error) {
		cOpts := opts
		cOpts.EvalBudget = tests
		res, err := kondoRun(ctx, p, cOpts, opts.Seed)
		if err != nil {
			return 0, err
		}
		return metrics.Recall(gt, res.Approx), nil
	}

	lastBF, lastAFL := 0.0, 0.0
	for t := step; t <= budget; t += step {
		if v, ok := bfAt[t]; ok {
			lastBF = v
		}
		if v, ok := aflAt[t]; ok {
			lastAFL = v
		} else if t == budget {
			lastAFL = finalAFL
		}
		carved, err := carvedAt(t)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(t), fmtF(kondoAt(t)), fmtF(carved), fmtF(lastBF), fmtF(lastAFL),
		})
	}
	return rep, nil
}
