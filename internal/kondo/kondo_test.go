package kondo

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/array"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestDebloatCS2Quality runs the full pipeline on the base cross
// stencil and checks the paper's headline quality band: recall near 1,
// precision well above the trivial baseline.
func TestDebloatCS2Quality(t *testing.T) {
	p := workload.MustCS(2, 128)
	cfg := DefaultConfig()
	cfg.Fuzz.Seed = 1
	res, err := Debloat(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Approx.Empty() || len(res.Hulls) == 0 {
		t.Fatal("pipeline produced no approximation")
	}
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := metrics.Evaluate(truth, res.Approx)
	t.Logf("CS2: precision=%.3f recall=%.3f hulls=%d evals=%d fuzz=%v carve=%v",
		pr.Precision, pr.Recall, len(res.Hulls), res.Fuzz.Evaluations,
		res.FuzzTime, res.CarveTime)
	if pr.Recall < 0.9 {
		t.Errorf("recall = %.3f, want >= 0.9", pr.Recall)
	}
	if pr.Precision < 0.7 {
		t.Errorf("precision = %.3f, want >= 0.7", pr.Precision)
	}
	if res.Fuzz.Evaluations >= int(p.Params().Valuations()) {
		t.Errorf("pipeline used %d evaluations, not fewer than |Θ| = %d",
			res.Fuzz.Evaluations, p.Params().Valuations())
	}
}

// TestDebloatLDCSeparation checks that the corner-blocks program keeps
// its two regions as separate hulls with precision 1 (paper §V-D2).
func TestDebloatLDCSeparation(t *testing.T) {
	p := workload.MustLDC(128, 128)
	cfg := DefaultConfig()
	cfg.Fuzz.Seed = 2
	res, err := Debloat(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := metrics.Evaluate(truth, res.Approx)
	t.Logf("LDC2D: precision=%.3f recall=%.3f hulls=%d", pr.Precision, pr.Recall, len(res.Hulls))
	if pr.Precision < 0.99 {
		t.Errorf("LDC precision = %.3f, want ~1", pr.Precision)
	}
	if pr.Recall < 0.9 {
		t.Errorf("LDC recall = %.3f, want >= 0.9", pr.Recall)
	}
	if len(res.Hulls) != 2 {
		t.Errorf("LDC carved into %d hulls, want 2", len(res.Hulls))
	}
}

// TestDebloatWithEvaluator checks the custom-evaluator entry point:
// the pipeline must call the provided debloat test and build its
// approximation from what the evaluator reports.
func TestDebloatWithEvaluator(t *testing.T) {
	p := workload.MustCS(2, 64)
	// The fuzz pool calls the evaluator from several goroutines.
	var evals atomic.Int64
	eval := func(v []float64) (*array.IndexSet, error) {
		evals.Add(1)
		return workload.RunOnVirtual(p, v)
	}
	cfg := DefaultConfig()
	cfg.Fuzz.Seed = 3
	cfg.Fuzz.MaxIter = 300
	res, err := DebloatWithEvaluator(context.Background(), p.Params(), p.Space(), eval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := evals.Load(); n == 0 || n != int64(res.Fuzz.Evaluations) {
		t.Errorf("evaluator called %d times, result reports %d", n, res.Fuzz.Evaluations)
	}
	if res.Approx.Empty() {
		t.Error("no approximation built")
	}
	if res.Elapsed() < res.FuzzTime || res.Elapsed() < res.CarveTime {
		t.Error("Elapsed inconsistent with stage times")
	}
}
