package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/array"
	"repro/internal/dataserve"
	"repro/internal/debloat"
	"repro/internal/sdf"
	"repro/internal/workload"
)

// perfRecoverySample bounds the number of missing elements the perf
// experiment recovers through the fetcher over the origin file.
const perfRecoverySample = 200

// Perf is the machine-readable performance experiment: one end-to-end
// pipeline run (fuzz → carve → rasterize → debloated file write →
// recovery reads) on the CS2 micro benchmark, reporting the headline
// numbers the perf trajectory tracks across PRs — evals/s, hull count,
// waste ratio, bytes kept, and recovery round-trips. The values land
// in Report.Metrics, which `kondo-bench -json` serializes as
// BENCH_perf.json.
func Perf(ctx context.Context, opts Options) (*Report, error) {
	p := workload.MustCS(2, opts.Size2D)
	res, err := kondoRun(ctx, p, opts, opts.Seed)
	if err != nil {
		return nil, err
	}
	pr, err := prOfApprox(p, res.Approx)
	if err != nil {
		return nil, err
	}
	evalsPerSec := 0.0
	if s := res.Fuzz.Elapsed.Seconds(); s > 0 {
		evalsPerSec = float64(res.Fuzz.Evaluations) / s
	}
	wasteRatio := res.WasteRatio()

	// Materialize the origin and the debloated file.
	dir, err := os.MkdirTemp("", "kondo-bench-perf-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	orig := filepath.Join(dir, "orig.sdf")
	w := sdf.NewWriter(orig)
	dw, err := w.CreateDataset("data", p.Space(), array.Float64, nil)
	if err != nil {
		return nil, err
	}
	if err := dw.Fill(func(ix array.Index) float64 { return float64(ix[0] + ix[1]) }); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	// Fine chunks so the cross-stencil's empty corners produce chunks
	// that are absent from the debloated file (coarser chunks would
	// all overlap the kept set, leaving recovery nothing to do).
	deb := filepath.Join(dir, "deb.sdf")
	chunk := make([]int, p.Space().Rank())
	for k := range chunk {
		chunk[k] = 4
	}
	writeStart := time.Now()
	stats, err := debloat.WriteSubset(orig, deb, "data", res.Approx, chunk)
	if err != nil {
		return nil, err
	}
	writeTime := time.Since(writeStart)

	// Recovery: read a sample of carved-away elements back through a
	// fetcher over the origin file.
	roundTrips, err := perfRecovery(ctx, deb, orig, res.Approx)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Columns: []string{"metric", "value"},
		Metrics: map[string]float64{
			"evaluations":          float64(res.Fuzz.Evaluations),
			"evals_per_sec":        evalsPerSec,
			"fuzz_seconds":         res.FuzzTime.Seconds(),
			"carve_seconds":        res.CarveTime.Seconds(),
			"write_seconds":        writeTime.Seconds(),
			"hulls":                float64(len(res.Hulls)),
			"merge_passes":         float64(res.CarveStats.MergePasses),
			"hull_shrinkage":       res.CarveStats.Shrinkage(),
			"waste_ratio":          wasteRatio,
			"kept_indices":         float64(res.Approx.Len()),
			"space_size":           float64(p.Space().Size()),
			"original_bytes":       float64(stats.OriginalBytes),
			"bytes_kept":           float64(stats.DebloatedBytes),
			"reduction":            stats.Reduction(),
			"recovery_round_trips": float64(roundTrips),
			"precision":            pr.Precision,
			"recall":               pr.Recall,
			"saturation":           res.Fuzz.Coverage.Saturation(),
		},
		Notes: []string{
			fmt.Sprintf("program %s at %s, budget %d, seed %d", p.Name(), p.Space(), opts.EvalBudget, opts.Seed),
			fmt.Sprintf("recovery sample capped at %d missing elements", perfRecoverySample),
			"wall-clock metrics (evals_per_sec, *_seconds) are machine-dependent; counts and ratios are deterministic",
		},
	}
	for _, m := range []string{
		"evaluations", "evals_per_sec", "fuzz_seconds", "carve_seconds", "write_seconds",
		"hulls", "merge_passes", "hull_shrinkage", "waste_ratio", "kept_indices", "space_size",
		"original_bytes", "bytes_kept", "reduction", "recovery_round_trips",
		"precision", "recall", "saturation",
	} {
		rep.Rows = append(rep.Rows, []string{m, fmtF(rep.Metrics[m])})
	}
	return rep, nil
}

// perfRecovery opens the debloated file with a fetcher over the origin
// file and reads up to perfRecoverySample carved-away elements,
// returning how many of them the runtime recovered
// (Runtime.Recovered).
func perfRecovery(ctx context.Context, debPath, origPath string, approx *array.IndexSet) (int, error) {
	f, err := sdf.Open(debPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	ds, err := f.Dataset("data")
	if err != nil {
		return 0, err
	}
	fetcher, err := dataserve.NewLocalFetcher(origPath)
	if err != nil {
		return 0, err
	}
	defer fetcher.Close()
	rt := debloat.NewRuntimeContext(ctx, ds, fetcher)
	space := ds.Space()
	read := 0
	var readErr error
	space.Each(func(ix array.Index) bool {
		if read >= perfRecoverySample {
			return false
		}
		if approx.Contains(ix) {
			return true
		}
		if _, err := rt.ReadElement(ix); err != nil {
			readErr = fmt.Errorf("recovering %v: %w", ix, err)
			return false
		}
		read++
		return true
	})
	if readErr != nil {
		return 0, readErr
	}
	return int(rt.Recovered()), nil
}
