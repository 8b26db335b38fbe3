package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/array"
	"repro/internal/baseline"
	"repro/internal/carve"
	"repro/internal/kondo"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TableI renders the access-pattern stencils of the four
// micro-benchmarks as ASCII down-samples of their ground-truth
// subsets.
func TableI(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"program", "stencil", "subset density"},
	}
	const grid = 24
	for _, p := range micro(opts) {
		gt, err := groundTruth(p)
		if err != nil {
			return nil, err
		}
		space := p.Space()
		density := float64(gt.Len()) / float64(space.Size())
		rep.Rows = append(rep.Rows, []string{p.Name(), p.Description(), fmtPct(density)})

		// Down-sample the truth onto a grid x grid raster.
		art := make([][]byte, grid)
		for r := range art {
			art[r] = []byte(strings.Repeat("·", grid))
		}
		cellR := (space.Dim(0) + grid - 1) / grid
		cellC := (space.Dim(1) + grid - 1) / grid
		gt.Each(func(ix array.Index) bool {
			r, c := ix[0]/cellR, ix[1]/cellC
			if r < grid && c < grid {
				art[r][c] = '#'
			}
			return true
		})
		rep.Notes = append(rep.Notes, p.Name()+" stencil:")
		for _, row := range art {
			rep.Notes = append(rep.Notes, "  "+string(row))
		}
	}
	return rep, nil
}

// TableII lists the 11 benchmark programs with their parameter spaces
// and ground-truth subsets.
func TableII(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"program", "#params", "|Θ|", "array", "|I_Θ|", "ground-truth bloat"},
	}
	for _, p := range allPrograms(opts) {
		gt, err := groundTruth(p)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			p.Name(),
			fmt.Sprint(len(p.Params())),
			fmt.Sprint(p.Params().Valuations()),
			p.Space().String(),
			fmt.Sprint(gt.Len()),
			fmtPct(metrics.BloatFraction(p.Space(), gt)),
		})
	}
	return rep, nil
}

// Fig7 compares average recall at a fixed debloat-test budget across
// Kondo, BF and AFL on the four micro-benchmarks.
func Fig7(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"program", "Kondo recall", "±σ", "BF recall", "AFL recall", "budget (tests)", "Kondo time"},
		Notes: []string{
			fmt.Sprintf("Kondo/BF averaged over %d runs, AFL over %d (paper §V-C)", opts.Runs, opts.AFLRuns),
			"expected shape: Kondo ≈ 1 with small variance, BF below Kondo, AFL lowest",
		},
	}
	for _, p := range micro(opts) {
		var kondoRecalls, bfRecalls, aflRecalls []float64
		var kondoTime time.Duration
		for r := 0; r < opts.Runs; r++ {
			res, err := kondoRun(ctx, p, opts, opts.Seed+int64(r))
			if err != nil {
				return nil, err
			}
			pr, err := prOfApprox(p, res.Approx)
			if err != nil {
				return nil, err
			}
			kondoRecalls = append(kondoRecalls, pr.Recall)
			kondoTime += res.Elapsed()

			bf, err := baseline.BruteForce(ctx, p, opts.EvalBudget)
			if err != nil {
				return nil, err
			}
			bfPR, err := prOfApprox(p, bf.Indices)
			if err != nil {
				return nil, err
			}
			bfRecalls = append(bfRecalls, bfPR.Recall)
		}
		for r := 0; r < opts.AFLRuns; r++ {
			cfg := baseline.AFLConfig{MaxEvals: opts.EvalBudget, Seed: opts.Seed + int64(r)}
			afl, err := baseline.AFL(ctx, p, cfg)
			if err != nil {
				return nil, err
			}
			aflPR, err := prOfApprox(p, afl.Indices)
			if err != nil {
				return nil, err
			}
			aflRecalls = append(aflRecalls, aflPR.Recall)
		}
		rep.Rows = append(rep.Rows, []string{
			p.Name(),
			fmtF(avg(kondoRecalls)),
			fmtF(stddev(kondoRecalls)),
			fmtF(avg(bfRecalls)),
			fmtF(avg(aflRecalls)),
			fmt.Sprint(opts.EvalBudget),
			fmtDur(kondoTime / time.Duration(opts.Runs)),
		})
	}
	return rep, nil
}

// Fig8 compares precision per program across Kondo, BF, AFL and SC.
func Fig8(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"program", "Kondo prec", "BF prec", "AFL prec", "SC prec"},
		Notes: []string{
			"BF/AFL precision is 1 by construction (they never subset unaccessed data)",
			"expected shape: Kondo well above SC; Kondo = 1 on LDC/RDC, < 1 on PRL/CS1/CS5",
		},
	}
	rows, err := forEachProgram(allPrograms(opts), func(p workload.Program) ([]string, error) {
		var kPrec, scPrec []float64
		for r := 0; r < opts.Runs; r++ {
			res, err := kondoRun(ctx, p, opts, opts.Seed+int64(r))
			if err != nil {
				return nil, err
			}
			pr, err := prOfApprox(p, res.Approx)
			if err != nil {
				return nil, err
			}
			kPrec = append(kPrec, pr.Precision)

			sc, err := baseline.SimpleConvex(ctx, p, fuzzCfg(opts, opts.Seed+int64(r)))
			if err != nil {
				return nil, err
			}
			scPR, err := prOfApprox(p, sc.Approx)
			if err != nil {
				return nil, err
			}
			scPrec = append(scPrec, scPR.Precision)
		}
		return []string{p.Name(), fmtF(avg(kPrec)), "1.000", "1.000", fmtF(avg(scPrec))}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return rep, nil
}

// Fig9 compares the fraction of data bloat Kondo identifies with the
// ground-truth bloat fraction per program.
func Fig9(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"program", "Kondo bloat", "ground-truth bloat"},
		Notes:   []string{"Kondo bloat = |I − I'_Θ| / |I| (paper reports 63% average)"},
	}
	programs := allPrograms(opts)
	kondoBloats := make([]float64, len(programs))
	pos := make(map[string]int, len(programs))
	for i, p := range programs {
		pos[p.Name()] = i
	}
	rows, err := forEachProgram(programs, func(p workload.Program) ([]string, error) {
		var bloats []float64
		for r := 0; r < opts.Runs; r++ {
			res, err := kondoRun(ctx, p, opts, opts.Seed+int64(r))
			if err != nil {
				return nil, err
			}
			bloats = append(bloats, metrics.BloatFraction(p.Space(), res.Approx))
		}
		gt, err := groundTruth(p)
		if err != nil {
			return nil, err
		}
		kondoBloats[pos[p.Name()]] = avg(bloats)
		return []string{
			p.Name(), fmtPct(avg(bloats)), fmtPct(metrics.BloatFraction(p.Space(), gt)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	rep.Notes = append(rep.Notes, fmt.Sprintf("average bloat identified: %s", fmtPct(avg(kondoBloats))))
	return rep, nil
}

// Fig10 measures how much budget the baselines need to reach the
// recall Kondo achieves.
func Fig10(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"program", "Kondo recall", "Kondo tests", "Kondo time",
			"BF tests", "BF time", "BF reached", "AFL tests", "AFL time", "AFL reached"},
		Notes: []string{
			"BF/AFL run until they match Kondo's recall or exhaust the cap",
			"expected shape: BF reaches it at 10-100x the tests; AFL stalls below it",
		},
	}
	aflCap := 60 * opts.EvalBudget
	if opts.Quick {
		aflCap = 20 * opts.EvalBudget
	}
	for _, p := range micro(opts) {
		res, err := kondoRun(ctx, p, opts, opts.Seed)
		if err != nil {
			return nil, err
		}
		pr, err := prOfApprox(p, res.Approx)
		if err != nil {
			return nil, err
		}
		target := pr.Recall
		gt, err := groundTruth(p)
		if err != nil {
			return nil, err
		}

		bf, err := baseline.BruteForceUntil(ctx, p, 128, func(r *baseline.Result) bool {
			return metrics.Recall(gt, r.Indices) >= target
		})
		if err != nil {
			return nil, err
		}
		bfRecall := metrics.Recall(gt, bf.Indices)

		aflCfg := baseline.AFLConfig{Seed: opts.Seed, MaxEvals: aflCap, ProgressEvery: 256}
		aflCfg.Progress = func(r *baseline.Result) bool {
			return metrics.Recall(gt, r.Indices) >= target
		}
		afl, err := baseline.AFL(ctx, p, aflCfg)
		if err != nil {
			return nil, err
		}
		aflRecall := metrics.Recall(gt, afl.Indices)

		rep.Rows = append(rep.Rows, []string{
			p.Name(), fmtF(target),
			fmt.Sprint(res.Fuzz.Evaluations), fmtDur(res.Elapsed()),
			fmt.Sprint(bf.Evaluations), fmtDur(bf.Elapsed), fmtF(bfRecall),
			fmt.Sprint(afl.Evaluations), fmtDur(afl.Elapsed), fmtF(aflRecall),
		})
	}
	return rep, nil
}

// TableIII evaluates Kondo and BF on the ARD and MSI real-application
// models.
func TableIII(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"program", "Θ", "array", "Kondo prec", "Kondo recall",
			"BF prec", "BF recall", "Kondo % debloat"},
		Notes: []string{
			"geometry is the paper's Table III scaled down (see DESIGN.md); kept fractions match",
			"expected shape: Kondo 1 & 1; BF recall well below 1 at the same budget",
		},
	}
	for _, p := range []workload.Program{workload.DefaultARD(), workload.DefaultMSI()} {
		budget := opts.EvalBudget * 2 // the paper gives the real apps a longer budget
		cfg := kondo.DefaultConfig()
		cfg.Fuzz.Seed = opts.Seed
		cfg.Fuzz.MaxEvals = budget
		cfg.Fuzz.MaxIter = 2 * budget
		cfg.Fuzz.Workers = opts.Workers
		res, err := kondo.Debloat(ctx, p, cfg)
		if err != nil {
			return nil, err
		}
		pr, err := prOfApprox(p, res.Approx)
		if err != nil {
			return nil, err
		}
		bf, err := baseline.BruteForce(ctx, p, budget)
		if err != nil {
			return nil, err
		}
		bfPR, err := prOfApprox(p, bf.Indices)
		if err != nil {
			return nil, err
		}
		var thetaParts []string
		for _, r := range p.Params() {
			thetaParts = append(thetaParts, fmt.Sprintf("%d-%d", r.Lo, r.Hi))
		}
		rep.Rows = append(rep.Rows, []string{
			p.Name(),
			"(" + strings.Join(thetaParts, ", ") + ")",
			p.Space().String(),
			fmtF(pr.Precision), fmtF(pr.Recall),
			fmtF(bfPR.Precision), fmtF(bfPR.Recall),
			fmtPct(metrics.BloatFraction(p.Space(), res.Approx)),
		})
	}
	return rep, nil
}

// kondoRunWithCarve runs the pipeline with a custom carve config.
func kondoRunWithCarve(ctx context.Context, p workload.Program, opts Options, seed int64, carveCfg carve.Config) (*kondo.Result, error) {
	cfg := kondo.DefaultConfig()
	cfg.Fuzz.Seed = seed
	cfg.Fuzz.MaxEvals = opts.EvalBudget
	cfg.Fuzz.Workers = opts.Workers
	cfg.Carve = carveCfg
	return kondo.Debloat(ctx, p, cfg)
}
