package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/array"
	"repro/internal/carve"
	"repro/internal/fuzz"
	"repro/internal/ioevent"
	"repro/internal/kondo"
	"repro/internal/metrics"
	"repro/internal/sdf"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig4 contrasts the plain exploit-and-explore schedule with the
// boundary-based schedule on the same budget, reporting how the
// evaluated parameter values distribute around the subset boundary.
func Fig4(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"schedule", "tests", "useful", "non-useful",
			"near-boundary", "clusters(u/n)", "|IS|"},
		Notes: []string{
			"program: CS2 (stepX <= stepY); boundary band: |stepX - stepY| <= 10",
			"expected shape: boundary-based EE concentrates tests near the boundary",
		},
	}
	p := workload.MustCS(2, opts.Size2D)
	runs := 1500
	if opts.Quick {
		runs = 600
	}
	for _, boundary := range []bool{false, true} {
		cfg := fuzz.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.MaxEvals = runs
		cfg.MaxIter = 4 * runs
		cfg.Workers = opts.Workers
		cfg.StopIter = 0 // fixed-budget campaign, as in the figure
		cfg.Boundary = boundary
		if boundary {
			// Engage boundary mutations within the budget.
			cfg.DecayIter = 50
			cfg.Decay = 0.8
		}
		f, err := fuzz.ForProgram(p, cfg)
		if err != nil {
			return nil, err
		}
		res, err := f.Run(ctx)
		if err != nil {
			return nil, err
		}
		near := 0
		for _, s := range res.Seeds {
			if math.Abs(s.V[0]-s.V[1]) <= 10 {
				near++
			}
		}
		name := "exploit-explore"
		if boundary {
			name = "boundary-based EE"
		}
		rep.Rows = append(rep.Rows, []string{
			name,
			fmt.Sprint(res.Evaluations),
			fmt.Sprint(res.Useful),
			fmt.Sprint(res.NonUseful),
			fmtPct(float64(near) / float64(len(res.Seeds))),
			fmt.Sprintf("%d/%d", res.UsefulClusters, res.NonUsefulClusters),
			fmt.Sprint(res.Indices.Len()),
		})
	}
	return rep, nil
}

// Fig6 demonstrates the merge algorithm on a synthetic three-cluster
// point set: per-cell hulls, the merged hull set, and the single-hull
// baseline.
func Fig6(ctx context.Context, opts Options) (*Report, error) {
	space := array.MustSpace(96, 96)
	truth := array.NewIndexSet(space)
	// Three clusters: two close together (they should merge), one far
	// away (it should stay separate) — the shape of the paper's
	// Fig. 6 walkthrough.
	addBlock := func(r0, c0, r1, c1 int) {
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				truth.Add(array.NewIndex(r, c))
			}
		}
	}
	addBlock(0, 0, 20, 20)
	addBlock(26, 10, 40, 30) // near the first: boundary distance ~6
	addBlock(70, 70, 92, 92) // far from both

	cells := carve.DefaultConfig()
	hulls, _, err := carve.CarveStats(ctx, truth, cells)
	if err != nil {
		return nil, err
	}
	merged, _, err := carve.RasterizeStats(ctx, hulls, space, 1)
	if err != nil {
		return nil, err
	}
	single, err := carve.SimpleConvex(truth)
	if err != nil {
		return nil, err
	}
	singleRaster, err := single.RasterizeContext(ctx, space)
	if err != nil {
		return nil, err
	}

	prMerged := metrics.Evaluate(truth, merged)
	prSingle := metrics.Evaluate(truth, singleRaster)
	rep := &Report{
		Columns: []string{"carver", "hulls", "precision", "recall"},
		Rows: [][]string{
			{"bottom-up merge (Kondo)", fmt.Sprint(len(hulls)), fmtF(prMerged.Precision), fmtF(prMerged.Recall)},
			{"single convex hull", "1", fmtF(prSingle.Precision), fmtF(prSingle.Recall)},
		},
		Notes: []string{
			"three input clusters; the two near ones merge, the far one stays separate",
			"expected shape: merged carver keeps precision high; single hull covers the gap",
		},
	}
	return rep, nil
}

// Fig11a sweeps the data file size for the CS3 program (the paper's
// lowest-recall benchmark) and reports precision/recall stability.
func Fig11a(ctx context.Context, opts Options) (*Report, error) {
	sizes := []int{128, 256, 512, 1024, 2048}
	if opts.Quick {
		sizes = []int{64, 128, 256}
	}
	rep := &Report{
		Columns: []string{"array", "file size", "precision", "recall"},
		Notes: []string{
			"program: CS3; 16-byte elements as in §V-B",
			"expected shape: recall stable, precision improves with size",
		},
	}
	rep.Notes = append(rep.Notes,
		"distance parameters (mutation frames, cluster diameter, cell size, merge",
		"thresholds) are fixed in normalized coordinates, i.e. scaled with the extent:",
		"that is the size-independent configuration §V-D4 argues for")
	runs := opts.Runs
	if runs > 3 && !opts.Quick {
		runs = 3 // the sweep is expensive at 2048^2; 3 seeded runs suffice for the trend
	}
	base := sizes[0]
	for _, n := range sizes {
		p := workload.MustCS(3, n)
		scale := float64(n) / float64(base)
		var precs, recalls []float64
		for r := 0; r < runs; r++ {
			cfg := kondo.DefaultConfig()
			cfg.Fuzz.Seed = opts.Seed + int64(r)
			cfg.Fuzz.MaxEvals = opts.EvalBudget
			cfg.Fuzz.Workers = opts.Workers
			cfg.Fuzz.UsefulDist = [2]float64{5 * scale, 15 * scale}
			cfg.Fuzz.NonUsefulDist = [2]float64{30 * scale, 50 * scale}
			cfg.Fuzz.Diameter = 20 * scale
			cfg.Carve.CellSize = int(16 * scale)
			cfg.Carve.CenterDistThresh = 20 * scale
			cfg.Carve.BoundaryDistThresh = 10 * scale
			res, err := kondo.Debloat(ctx, p, cfg)
			if err != nil {
				return nil, err
			}
			pr, err := prOfApprox(p, res.Approx)
			if err != nil {
				return nil, err
			}
			precs = append(precs, pr.Precision)
			recalls = append(recalls, pr.Recall)
		}
		bytes := int64(n) * int64(n) * 16
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d×%d", n, n),
			fmt.Sprintf("%d KB", bytes/1024),
			fmtF(avg(precs)),
			fmtF(avg(recalls)),
		})
	}
	return rep, nil
}

// Fig11bc sweeps center_d_thresh and reports precision (Fig. 11b) and
// recall (Fig. 11c) averaged over the micro-benchmarks.
func Fig11bc(ctx context.Context, opts Options) (*Report, error) {
	thresholds := []float64{5, 10, 20, 40, 80, 160}
	if opts.Quick {
		thresholds = []float64{5, 20, 160}
	}
	rep := &Report{
		Columns: []string{"center_d_thresh", "precision", "recall"},
		Notes: []string{
			"programs with gapped/sparse regions (CS1, CS5, LDC2D, PRL2D) under a reduced",
			"observation budget, where merging decisions actually change the carved subset",
			"expected shape: recall rises with the threshold, precision falls; recall stays above ~0.75",
		},
	}
	// A reduced budget leaves the observations fragmented, so the
	// merge threshold decides whether sandwiched truth gets covered
	// (recall) and whether separate regions get bridged (precision) —
	// the regime the paper's sensitivity plot probes.
	sweepOpts := opts
	sweepOpts.EvalBudget = maxInt(150, opts.EvalBudget/8)
	programs := []workload.Program{
		workload.MustCS(1, opts.Size2D),
		workload.MustCS(5, opts.Size2D),
		workload.MustLDC(opts.Size2D, opts.Size2D),
		workload.MustPRL(opts.Size2D, opts.Size2D),
	}
	for _, th := range thresholds {
		var precs, recalls []float64
		for _, p := range programs {
			for r := 0; r < minInt(opts.Runs, 3); r++ {
				res, err := kondoRunWithCarve(ctx, p, sweepOpts, opts.Seed+int64(r), carveCfgFor(th))
				if err != nil {
					return nil, err
				}
				pr, err := prOfApprox(p, res.Approx)
				if err != nil {
					return nil, err
				}
				precs = append(precs, pr.Precision)
				recalls = append(recalls, pr.Recall)
			}
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(th), fmtF(avg(precs)), fmtF(avg(recalls))})
	}
	return rep, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Missed reports the §V-D1 measure: the percentage of parameter
// valuations whose run would touch at least one carved-away index.
func Missed(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"program", "missed valuations"},
		Notes:   []string{"paper reports 0.0%–0.8% across programs"},
	}
	rows, err := forEachProgram(allPrograms(opts), func(p workload.Program) ([]string, error) {
		res, err := kondoRun(ctx, p, opts, opts.Seed)
		if err != nil {
			return nil, err
		}
		rate, err := metrics.MissedValuationRate(p, res.Approx, 1<<20, 2000, opts.Seed)
		if err != nil {
			return nil, err
		}
		return []string{p.Name(), fmtPct(rate)}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return rep, nil
}

// Audit measures the I/O event audit overhead (§V-D6): the same
// program runs against a real data file with and without the trace
// layer, over growing file sizes.
func Audit(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{
		Columns: []string{"program", "array", "events", "untraced", "traced", "overhead", "q1–q3"},
		Notes: []string{
			"overhead = (traced − untraced) / untraced wall time of the open→run→close window over the same reads",
			fmt.Sprintf("median and q1–q3 over %d alternating untraced/traced repeats", auditReps),
			"paper reports ~31% average; I/O-intensive programs sit higher",
		},
	}
	sizes := []int{64, 128, 256}
	if opts.Quick {
		sizes = []int{32, 64}
	}
	dir, err := os.MkdirTemp("", "kondo-audit")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var overheads []float64
	for _, n := range sizes {
		for _, mk := range []func(int) workload.Program{
			func(n int) workload.Program { return workload.MustCS(2, n) },
			func(n int) workload.Program { return workload.MustPRL(n, n) },
			func(n int) workload.Program { return workload.MustLDC(n, n) },
		} {
			p := mk(n)
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.sdf", p.Name(), n))
			if err := writeDataFile(path, p.Space()); err != nil {
				return nil, err
			}
			a, err := auditOnce(ctx, p, path)
			if err != nil {
				return nil, err
			}
			overheads = append(overheads, a.ratios[len(a.ratios)/2])
			rep.Rows = append(rep.Rows, []string{
				p.Name(), p.Space().String(), fmt.Sprint(a.events),
				fmtDur(a.untraced), fmtDur(a.traced), fmtPct(a.ratios[len(a.ratios)/2]),
				fmtPct(a.ratios[len(a.ratios)/4]) + "–" + fmtPct(a.ratios[3*len(a.ratios)/4]),
			})
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("average overhead: %s", fmtPct(avg(overheads))))
	return rep, nil
}

// writeDataFile creates a chunked long-double data file for the space.
func writeDataFile(path string, space array.Space) error {
	w := sdf.NewWriter(path)
	chunk := make([]int, space.Rank())
	for k := range chunk {
		chunk[k] = minInt(space.Dim(k), 16)
	}
	dw, err := w.CreateDataset("data", space, array.LongDouble, chunk)
	if err != nil {
		return err
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	}); err != nil {
		return err
	}
	return w.Close()
}

// auditReps is how many untraced/traced pairs auditOnce times. Over
// four quick runs at 31, the average of the per-program medians moved
// by under 1.5 points; at 11 repeats it moved by 9.
const auditReps = 31

// auditRuns is one program's audit overhead measurement.
type auditRuns struct {
	events           int64
	untraced, traced time.Duration // medians
	ratios           []float64     // per-repeat overheads, ascending
}

// auditOnce measures the audit overhead for one program and file: the
// same spread of parameter values runs against the file untraced and
// traced through trace.Audit, alternating, auditReps times. Each
// repeat gives one traced/untraced ratio (single sub-millisecond runs
// are too noisy to subtract). A collection before each window keeps
// one side's garbage out of the other's.
func auditOnce(ctx context.Context, p workload.Program, path string) (auditRuns, error) {
	params := p.Params()
	const spread = 36
	values := make([][]float64, 0, spread)
	for i := 0; i < spread; i++ {
		v := make([]float64, len(params))
		for k, r := range params {
			v[k] = float64(r.Lo) + float64(i)*float64(r.Hi-r.Lo)/float64(spread-1)
		}
		values = append(values, v)
	}
	runAll := func(ds *sdf.Dataset) error {
		env := &workload.Env{Acc: workload.NewFileAccessor(ds)}
		for _, v := range values {
			if err := p.Run(v, env); err != nil {
				return err
			}
		}
		return nil
	}

	var a auditRuns
	var untraced, traced []time.Duration
	for rep := 0; rep < auditReps; rep++ {
		runtime.GC()
		u, err := trace.Audit(ctx, nil, path, "data", runAll)
		if err != nil {
			return a, err
		}
		store := ioevent.NewStore()
		runtime.GC()
		t, err := trace.Audit(ctx, trace.NewTracer(store), path, "data", runAll)
		if err != nil {
			return a, err
		}
		untraced = append(untraced, u.Elapsed)
		traced = append(traced, t.Elapsed)
		a.ratios = append(a.ratios, float64(t.Elapsed-u.Elapsed)/float64(u.Elapsed))
		a.events = store.Events()
	}
	sort.Float64s(a.ratios)
	a.untraced, a.traced = median(untraced), median(traced)
	return a, nil
}

// median returns the median of the samples (they are few; sort a copy).
func median(ds []time.Duration) time.Duration {
	cp := append([]time.Duration(nil), ds...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp[len(cp)/2]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
