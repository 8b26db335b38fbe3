package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricClass says how the regression gate compares one metric against
// its committed baseline.
type metricClass int

const (
	// classExempt skips the metric: wall-clock and machine-dependent
	// values (seconds, speedups, worker counts) vary run to run.
	classExempt metricClass = iota
	// classExact requires the fresh value to equal the baseline (within
	// float formatting tolerance). Used for deterministic structural
	// counts: changing one means the algorithm's output changed.
	classExact
	// classLowerBetter fails when the fresh value grows beyond the
	// baseline: a cost counter regressed.
	classLowerBetter
	// classHigherBetter fails when the fresh value drops below the
	// baseline: an efficiency headline regressed.
	classHigherBetter
)

// checkTol is the relative tolerance for the gate's comparisons. The
// gated metrics are deterministic counts and their ratios, so the
// tolerance only has to absorb float formatting, not run-to-run noise.
const checkTol = 1e-6

// checkedExperiments classifies every metric of the experiments the
// regression gate covers (`kondo-bench -check`, `make bench-check`).
// Metrics not listed here are exempt; baselines must be regenerated
// with `make bench-json` whenever an intentional change shifts a gated
// metric.
var checkedExperiments = map[string]map[string]metricClass{
	"carve": {
		"points":                  classExact,
		"initial_hulls":           classExact,
		"final_hulls":             classExact,
		"merges":                  classExact,
		"merge_passes":            classExact,
		"prune_hits":              classExact,
		"naive_pair_bound":        classExact,
		"rasterized_indices":      classExact,
		"raster_rows":             classExact,
		"raster_runs":             classExact,
		"raster_point_tests_bbox": classExact,
		"pair_tests":              classLowerBetter,
		"raster_point_tests":      classLowerBetter,
		"pair_test_reduction":     classHigherBetter,
		"raster_point_reduction":  classHigherBetter,
		"engine_seconds":          classExempt,
		"naive_seconds":           classExempt,
		"carve_speedup":           classExempt,
		"raster_serial_seconds":   classExempt,
		"raster_workers_seconds":  classExempt,
		"raster_speedup":          classExempt,
		"raster_workers":          classExempt,
	},
	"perf": {
		"evaluations":          classExact,
		"hulls":                classExact,
		"merge_passes":         classExact,
		"kept_indices":         classExact,
		"space_size":           classExact,
		"original_bytes":       classExact,
		"bytes_kept":           classExact,
		"recovery_round_trips": classExact,
		"hull_shrinkage":       classHigherBetter,
		"reduction":            classHigherBetter,
		"precision":            classHigherBetter,
		"recall":               classHigherBetter,
		"saturation":           classHigherBetter,
		"waste_ratio":          classLowerBetter,
		"evals_per_sec":        classExempt,
		"fuzz_seconds":         classExempt,
		"carve_seconds":        classExempt,
		"write_seconds":        classExempt,
	},
	"serve": {
		// Closed-loop runs are count-bounded, so request/error totals and
		// the stitched client+server trace geometry are exact.
		"requests":   classExact,
		"errors":     classExact,
		"trace_pids": classExact,
		// Wall-clock shapes vary with the host; report, don't gate.
		"throughput_rps": classExempt,
		"p50_ms":         classExempt,
		"p95_ms":         classExempt,
		"p99_ms":         classExempt,
		"cache_hit_rate": classExempt,
		// The raw overhead ratio is wall clock (exempt); the gated copy
		// is floored at the serving observability budget so it fails
		// exactly when request tracing costs more than that, never on
		// sub-floor noise.
		"serve_overhead":       classExempt,
		"serve_overhead_gated": classLowerBetter,
		// Merkle verification: proof counts vary with singleflight timing
		// (report only), failures must stay exactly zero, and the paired
		// verify-on overhead shares the floored ≤5% gate.
		"verify_proofs":         classExempt,
		"verify_failed":         classExact,
		"verify_overhead":       classExempt,
		"verify_overhead_gated": classLowerBetter,
	},
}

// CheckFailure is one gated metric that failed the regression gate.
type CheckFailure struct {
	// Metric is the metric name within the experiment.
	Metric string
	// Got and Baseline are the fresh and committed values. NaN marks a
	// side that was missing entirely.
	Got, Baseline float64
	// Reason classifies the failure for the rendered diff.
	Reason string
}

// CheckError is the regression gate's verdict for one experiment: the
// complete list of gated metrics that regressed, not just the first.
// Its Error rendering is an aligned metric/got/baseline diff so a CI
// log shows the whole regression at a glance.
type CheckError struct {
	// Experiment is the report id that was gated.
	Experiment string
	// Baseline is the path of the committed baseline JSON.
	Baseline string
	// Failures lists every regressed metric in name order.
	Failures []CheckFailure
}

// Error renders the aligned diff.
func (e *CheckError) Error() string {
	fmtVal := func(v float64) string {
		if math.IsNaN(v) {
			return "(missing)"
		}
		return fmtGateVal(v)
	}
	rows := make([][3]string, 0, len(e.Failures))
	wName, wGot, wBase := len("metric"), len("fresh"), len("baseline")
	for _, f := range e.Failures {
		r := [3]string{f.Metric, fmtVal(f.Got), fmtVal(f.Baseline)}
		rows = append(rows, r)
		if len(r[0]) > wName {
			wName = len(r[0])
		}
		if len(r[1]) > wGot {
			wGot = len(r[1])
		}
		if len(r[2]) > wBase {
			wBase = len(r[2])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "bench: %s: %d gated metric(s) regressed vs %s:\n",
		e.Experiment, len(e.Failures), e.Baseline)
	fmt.Fprintf(&b, "  %-*s  %*s  %*s\n", wName, "metric", wGot, "fresh", wBase, "baseline")
	for i, f := range e.Failures {
		r := rows[i]
		fmt.Fprintf(&b, "  %-*s  %*s  %*s  %s\n", wName, r[0], wGot, r[1], wBase, r[2], f.Reason)
	}
	b.WriteString("if the change is intentional, regenerate baselines with `make bench-json`")
	return b.String()
}

// fmtGateVal formats a gate value the way Report.JSON would, trimming
// trailing zeros so counts print as integers.
func fmtGateVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Check compares a freshly produced report against the committed
// baseline JSON at baselinePath. On regression it returns a
// *CheckError listing every gated metric that failed — callers can
// aggregate errors across experiments before exiting. Wall-clock
// metrics are exempt; the gated ones are deterministic counts (and
// their ratios), so any drift is a real behavior change, not noise.
// Intentional changes are accepted by regenerating the baseline with
// `make bench-json`.
func Check(rep *Report, baselinePath string) error {
	classes, ok := checkedExperiments[rep.ID]
	if !ok {
		return fmt.Errorf("bench: experiment %q has no regression gate", rep.ID)
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench: reading baseline: %w (regenerate with `make bench-json`)", err)
	}
	var base struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("bench: parsing baseline %s: %w", baselinePath, err)
	}

	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	cerr := &CheckError{Experiment: rep.ID, Baseline: baselinePath}
	for _, name := range names {
		class := classes[name]
		if class == classExempt {
			continue
		}
		got, inRep := rep.Metrics[name]
		want, inBase := base.Metrics[name]
		switch {
		case !inRep:
			cerr.Failures = append(cerr.Failures, CheckFailure{
				Metric: name, Got: math.NaN(), Baseline: want,
				Reason: "missing from the fresh report"})
			continue
		case !inBase:
			cerr.Failures = append(cerr.Failures, CheckFailure{
				Metric: name, Got: got, Baseline: math.NaN(),
				Reason: "missing from the baseline"})
			continue
		}
		tol := checkTol * math.Max(math.Abs(want), 1)
		switch class {
		case classExact:
			if math.Abs(got-want) > tol {
				cerr.Failures = append(cerr.Failures, CheckFailure{
					Metric: name, Got: got, Baseline: want,
					Reason: "exact metric changed"})
			}
		case classLowerBetter:
			if got > want+tol {
				cerr.Failures = append(cerr.Failures, CheckFailure{
					Metric: name, Got: got, Baseline: want,
					Reason: "cost counter regressed"})
			}
		case classHigherBetter:
			if got < want-tol {
				cerr.Failures = append(cerr.Failures, CheckFailure{
					Metric: name, Got: got, Baseline: want,
					Reason: "headline regressed"})
			}
		}
	}
	if len(cerr.Failures) > 0 {
		return cerr
	}
	return nil
}
