package baseline

import (
	"context"
	"testing"
	"time"

	"repro/internal/fuzz"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func TestBruteForceExhaustiveIsExact(t *testing.T) {
	p := workload.MustCS(2, 32)
	res, err := BruteForce(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Error("unbounded BF should exhaust Θ")
	}
	if res.Evaluations != int(p.Params().Valuations()) {
		t.Errorf("Evaluations = %d, want %d", res.Evaluations, p.Params().Valuations())
	}
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := metrics.Evaluate(truth, res.Indices)
	if pr.Precision != 1 || pr.Recall != 1 {
		t.Errorf("exhaustive BF precision/recall = %+v, want 1/1", pr)
	}
}

func TestBruteForceRespectsEvalBudget(t *testing.T) {
	p := workload.MustCS(2, 64)
	res, err := BruteForce(context.Background(), p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 100 {
		t.Errorf("Evaluations = %d, want 100", res.Evaluations)
	}
	if res.Exhausted {
		t.Error("budgeted BF should not report exhaustion")
	}
	// Lexicographic order means stepX=0 rows first: precision stays 1
	// (it never over-approximates) but recall is partial.
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := metrics.Evaluate(truth, res.Indices)
	if pr.Precision != 1 {
		t.Errorf("BF precision = %v, want 1", pr.Precision)
	}
	if pr.Recall >= 1 {
		t.Errorf("BF with 100 evals should have partial recall, got %v", pr.Recall)
	}
}

// TestBruteForceRespectsTimeBudget pins an enumeration's one
// wall-clock bound, its context's deadline: under a 20 ms deadline BF
// over a Θ of a million valuations returns within a second with the
// runs it made.
func TestBruteForceRespectsTimeBudget(t *testing.T) {
	p := workload.MustCS(2, 1024)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := BruteForce(ctx, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("enumeration returned %v after a 20ms deadline", elapsed)
	}
	if res.Exhausted {
		t.Errorf("enumeration of %d valuations reports exhaustion after %d runs", p.Params().Valuations(), res.Evaluations)
	}
	if res.Evaluations == 0 || res.Indices.Empty() {
		t.Errorf("partial result is empty: %d evaluations, %d indices", res.Evaluations, res.Indices.Len())
	}
}

func TestAFLFindsCoverage(t *testing.T) {
	p := workload.MustCS(2, 64)
	res, err := AFL(context.Background(), p, AFLConfig{MaxEvals: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations == 0 || res.Evaluations > 3000 {
		t.Fatalf("Evaluations = %d", res.Evaluations)
	}
	if res.Indices.Empty() {
		t.Fatal("AFL found no indices")
	}
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := metrics.Evaluate(truth, res.Indices)
	t.Logf("AFL: evals=%d |IS|=%d precision=%.3f recall=%.3f",
		res.Evaluations, res.Indices.Len(), pr.Precision, pr.Recall)
	// AFL records only real accesses: precision 1 by construction.
	if pr.Precision != 1 {
		t.Errorf("AFL precision = %v, want 1", pr.Precision)
	}
	if pr.Recall <= 0 {
		t.Error("AFL recall should be positive")
	}
}

// TestAFLWeakerThanKondoPerEval reproduces the paper's core claim at
// equal run budgets: Kondo's data-coverage schedule reaches much
// higher recall than the code-coverage-guided baseline (Fig. 7).
func TestAFLWeakerThanKondoPerEval(t *testing.T) {
	p := workload.MustCS(2, 128)
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1500

	aflRes, err := AFL(context.Background(), p, AFLConfig{MaxEvals: budget, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	aflRecall := metrics.Recall(truth, aflRes.Indices)

	fuzzCfg := fuzz.DefaultConfig()
	fuzzCfg.MaxEvals = budget
	fuzzCfg.Seed = 4
	f, err := fuzz.ForProgram(p, fuzzCfg)
	if err != nil {
		t.Fatal(err)
	}
	kres, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Raw fuzzer observations (before carving) already beat AFL.
	kondoRecall := metrics.Recall(truth, kres.Indices)
	t.Logf("recall at %d evals: kondo-fuzzer=%.3f afl=%.3f", budget, kondoRecall, aflRecall)
	if kondoRecall <= aflRecall {
		t.Errorf("expected Kondo fuzzer recall (%.3f) > AFL recall (%.3f)", kondoRecall, aflRecall)
	}
}

func TestSimpleConvexCoversButOverApproximates(t *testing.T) {
	// On LDC (two distant corners), SC's single hull must cover the
	// diagonal between the corners: recall high, precision well below
	// Kondo's (Fig. 8).
	p := workload.MustLDC(128, 128)
	cfg := fuzz.DefaultConfig()
	cfg.Seed = 5
	res, err := SimpleConvex(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := metrics.Evaluate(truth, res.Approx)
	t.Logf("SC on LDC2D: precision=%.3f recall=%.3f", pr.Precision, pr.Recall)
	if pr.Recall < 0.9 {
		t.Errorf("SC recall = %v, want >= 0.9", pr.Recall)
	}
	if pr.Precision > 0.6 {
		t.Errorf("SC precision = %v; expected heavy over-approximation (< 0.6)", pr.Precision)
	}
}

func TestEncodeDecodeInput(t *testing.T) {
	v := []float64{3, 117, 64}
	data := encodeInput(v)
	back := decodeInput(data, 3)
	for i := range v {
		if back[i] != v[i] {
			t.Errorf("round trip[%d] = %v, want %v", i, back[i], v[i])
		}
	}
	// Short buffer: missing params decode to zero.
	short := decodeInput(data[:4], 3)
	if short[0] != 3 || short[1] != 0 || short[2] != 0 {
		t.Errorf("short decode = %v", short)
	}
}

func TestClassifyCounts(t *testing.T) {
	cases := map[byte]byte{0: 0, 1: 1, 2: 2, 3: 4, 5: 8, 12: 16, 20: 32, 100: 64, 200: 128}
	for in, want := range cases {
		if got := classifyCounts(in); got != want {
			t.Errorf("classifyCounts(%d) = %d, want %d", in, got, want)
		}
	}
}
