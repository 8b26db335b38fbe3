// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§V). Each experiment is a
// named runner producing a Report — the same rows/series the paper
// plots — so `kondo-bench -exp fig7` prints the Fig. 7 data, and the
// root benchmark suite wraps the runners in testing.B benchmarks.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/array"
	"repro/internal/carve"
	"repro/internal/fuzz"
	"repro/internal/kondo"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Report is one regenerated table or figure.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Metrics holds the report's headline numbers keyed by metric
	// name, for machine consumption (`kondo-bench -json` writes them
	// as BENCH_<id>.json). Experiments that only produce tables may
	// leave it nil.
	Metrics map[string]float64
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// JSON renders the report as a machine-readable document: the table
// verbatim plus the Metrics map, so downstream tooling can track the
// perf trajectory without parsing aligned text.
func (r *Report) JSON() ([]byte, error) {
	doc := struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		Columns []string           `json:"columns"`
		Rows    [][]string         `json:"rows"`
		Notes   []string           `json:"notes,omitempty"`
		Metrics map[string]float64 `json:"metrics,omitempty"`
	}{r.ID, r.Title, r.Columns, r.Rows, r.Notes, r.Metrics}
	return json.MarshalIndent(doc, "", "  ")
}

// CSV renders the report as RFC-4180 CSV (header row + data rows),
// for plotting the regenerated figures.
func (r *Report) CSV() string {
	var b strings.Builder
	writeRec := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRec(r.Columns)
	for _, row := range r.Rows {
		writeRec(row)
	}
	return b.String()
}

// Options tunes the harness. Quick mode shrinks sizes and repetition
// counts so the full suite runs in seconds (used by tests); the
// defaults follow the paper's methodology (§V-C): averages over 10
// Kondo/BF runs and 2 AFL runs.
type Options struct {
	// Runs is the number of repetitions for Kondo and BF.
	Runs int
	// AFLRuns is the number of repetitions for AFL.
	AFLRuns int
	// EvalBudget is the per-campaign debloat-test budget used where
	// the paper fixes a time budget; expressing the budget in test
	// executions makes the comparison machine-independent. Wall-clock
	// per campaign is also reported.
	EvalBudget int
	// Size2D and Size3D are the benchmark array extents.
	Size2D, Size3D int
	// Seed is the base RNG seed; run i uses Seed+i.
	Seed int64
	// Quick trims the heaviest experiments (fewer sweep points,
	// smaller maxima).
	Quick bool
	// Workers is the fuzz worker-pool size per campaign (0 = one
	// worker per available CPU). The experiment outcomes are
	// worker-count independent; only wall-clock changes.
	Workers int
}

// DefaultOptions mirrors §V-B/§V-C.
func DefaultOptions() Options {
	return Options{
		Runs:       10,
		AFLRuns:    2,
		EvalBudget: 2000,
		Size2D:     workload.Default2D,
		Size3D:     workload.Default3D,
		Seed:       1,
	}
}

// QuickOptions is a fast configuration for tests and smoke runs.
func QuickOptions() Options {
	return Options{
		Runs:       3,
		AFLRuns:    1,
		EvalBudget: 1200,
		Size2D:     64,
		Size3D:     32,
		Seed:       1,
		Quick:      true,
	}
}

// Runner is one experiment. The context cancels the experiment's
// campaigns; a canceled run returns the context's error.
type Runner func(context.Context, Options) (*Report, error)

// registry maps experiment ids to runners.
var registry = map[string]struct {
	title string
	run   Runner
}{
	"tableI":   {"Types of stencils (micro-benchmark access patterns)", TableI},
	"tableII":  {"Benchmark programs, parameter spaces, ground-truth subsets", TableII},
	"tableIII": {"Programs derived from real applications (ARD, MSI)", TableIII},
	"fig4":     {"EE vs boundary-based EE fuzz campaigns", Fig4},
	"fig6":     {"Bottom-up hull merging vs single convex hull", Fig6},
	"fig7":     {"Average recall for a fixed budget (Kondo vs BF vs AFL)", Fig7},
	"fig8":     {"Precision per program (Kondo vs BF vs AFL vs SC)", Fig8},
	"fig9":     {"Fraction of data bloat identified vs ground truth", Fig9},
	"fig10":    {"Budget needed to reach Kondo's recall", Fig10},
	"fig11a":   {"Precision/recall with growing data file size (CS3)", Fig11a},
	"fig11bc":  {"Precision/recall sensitivity to center_d_thresh", Fig11bc},
	"missed":   {"Fraction of valuations with at least one missed access (§V-D1)", Missed},
	"audit":    {"I/O event audit overhead (§V-D6)", Audit},
	"curve":    {"Recall vs number of debloat tests (Kondo vs BF vs AFL)", Curve},
	"hybrid":   {"Hybrid schedule: Kondo + AFL havoc phase (§VI extension)", Hybrid},
	"perf":     {"End-to-end pipeline performance (machine-readable trajectory)", Perf},
	"carve":    {"Carve merge engine vs naive reference (output sensitivity)", Carve},
	"serve":    {"Recovery plane under load (throughput, tail latency, tracing overhead)", Serve},
}

// Experiments returns the available experiment ids, sorted.
func Experiments() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id under the given context.
func Run(ctx context.Context, id string, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(Experiments(), ", "))
	}
	rep, err := e.run(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", id, err)
	}
	rep.ID = id
	rep.Title = e.title
	return rep, nil
}

// --- shared helpers ---

// truthCache avoids recomputing ground truths across experiments in
// one process. Guarded: experiments fan work out across programs.
var (
	truthMu    sync.Mutex
	truthCache = map[string]*array.IndexSet{}
)

func groundTruth(p workload.Program) (*array.IndexSet, error) {
	key := fmt.Sprintf("%s@%s", p.Name(), p.Space())
	truthMu.Lock()
	gt, ok := truthCache[key]
	truthMu.Unlock()
	if ok {
		return gt, nil
	}
	gt, err := workload.GroundTruth(p)
	if err != nil {
		return nil, err
	}
	truthMu.Lock()
	truthCache[key] = gt
	truthMu.Unlock()
	return gt, nil
}

// forEachProgram runs fn for every program concurrently (bounded by
// GOMAXPROCS) and returns the per-program row results in input order.
// The first error wins.
func forEachProgram(programs []workload.Program, fn func(p workload.Program) ([]string, error)) ([][]string, error) {
	rows := make([][]string, len(programs))
	errs := make([]error, len(programs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range programs {
		wg.Add(1)
		go func(i int, p workload.Program) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i], errs[i] = fn(p)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// kondoRun executes one seeded Kondo pipeline run under the eval
// budget and returns the rasterized approximation plus timings.
func kondoRun(ctx context.Context, p workload.Program, opts Options, seed int64) (*kondo.Result, error) {
	cfg := kondo.DefaultConfig()
	cfg.Fuzz.Seed = seed
	cfg.Fuzz.MaxEvals = opts.EvalBudget
	cfg.Fuzz.Workers = opts.Workers
	return kondo.Debloat(ctx, p, cfg)
}

// avg returns the mean of the values.
func avg(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// stddev returns the sample standard deviation (0 for fewer than two
// values) — the error bars of the paper's Fig. 7.
func stddev(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	m := avg(vals)
	var s float64
	for _, v := range vals {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(vals)-1))
}

// fmtF formats a float with 3 decimals.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtPct formats a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// fmtDur formats a duration compactly, keeping microsecond resolution
// for sub-10ms values so fast audited runs don't render as "0s".
func fmtDur(d time.Duration) string {
	if d < 10*time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(time.Millisecond).String()
}

// micro returns the four micro benchmarks at the configured size.
func micro(opts Options) []workload.Program { return workload.Micro(opts.Size2D) }

// allPrograms returns the 11-program suite at the configured sizes.
func allPrograms(opts Options) []workload.Program {
	return append(workload.Micro(opts.Size2D), workload.Synthetic(opts.Size2D, opts.Size3D)...)
}

// prOfApprox evaluates an approximation against a program's truth.
func prOfApprox(p workload.Program, approx *array.IndexSet) (metrics.PR, error) {
	gt, err := groundTruth(p)
	if err != nil {
		return metrics.PR{}, err
	}
	return metrics.Evaluate(gt, approx), nil
}

// carveCfgFor allows experiments to tweak the carve configuration.
func carveCfgFor(centerThresh float64) carve.Config {
	cfg := carve.DefaultConfig()
	cfg.CenterDistThresh = centerThresh
	return cfg
}

// fuzzCfg returns the default fuzz configuration under the harness
// budget with the given seed.
func fuzzCfg(opts Options, seed int64) fuzz.Config {
	cfg := fuzz.DefaultConfig()
	cfg.Seed = seed
	cfg.MaxEvals = opts.EvalBudget
	cfg.Workers = opts.Workers
	return cfg
}
