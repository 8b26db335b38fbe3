package fuzz

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestRunEmitsSpansAndMetrics runs a multi-worker campaign with a
// trace and a registry in the context and checks that the export is
// well-formed Chrome trace JSON carrying fuzz spans from multiple
// worker lanes, a fuzz.round and a fuzz.merge span per round, and
// that the live counters match the result. Under
// -race this is the observability concurrency contract of the pool.
func TestRunEmitsSpansAndMetrics(t *testing.T) {
	space := array.MustSpace(32, 32)
	params := workload.ParamSpace{{Lo: 0, Hi: 31}, {Lo: 0, Hi: 31}}
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.MaxIter = 400
	cfg.Workers = 4
	f, err := New(params, space, rectEvaluator(space, 5, 20, 5, 20), cfg)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	ctx := obs.WithTrace(context.Background(), tr)
	ctx = obs.WithRegistry(ctx, reg)
	res, err := f.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TID  int      `json:"tid"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}

	counts := map[string]int{}
	tids := map[int]bool{}
	for _, e := range out.TraceEvents {
		counts[e.Name]++
		if e.Ph != "X" {
			t.Fatalf("unexpected phase %q on %q", e.Ph, e.Name)
		}
		if e.Dur == nil || *e.Dur < 0 {
			t.Fatalf("span %q without a duration", e.Name)
		}
		if e.Name == "fuzz.worker" {
			tids[e.TID] = true
		}
	}
	if counts["fuzz.run"] != 1 {
		t.Errorf("fuzz.run spans = %d, want 1", counts["fuzz.run"])
	}
	if counts["fuzz.round"] != res.Batches {
		t.Errorf("fuzz.round spans = %d, want %d batches", counts["fuzz.round"], res.Batches)
	}
	if counts["fuzz.merge"] != res.Batches {
		t.Errorf("fuzz.merge spans = %d, want %d batches", counts["fuzz.merge"], res.Batches)
	}
	if counts["fuzz.worker"] == 0 {
		t.Error("no fuzz.worker spans from a 4-worker campaign")
	}
	if len(tids) < 2 {
		t.Errorf("worker spans spread over %d lanes, want >= 2", len(tids))
	}

	if got := reg.Counter("kondo_fuzz_evals_total").Value(); got != int64(res.Evaluations) {
		t.Errorf("evals counter = %d, want %d", got, res.Evaluations)
	}
	if got := reg.Counter("kondo_fuzz_batches_total").Value(); got != int64(res.Batches) {
		t.Errorf("batches counter = %d, want %d", got, res.Batches)
	}
	if got := reg.Counter("kondo_fuzz_dedup_skips_total").Value(); got != int64(res.DedupSkips) {
		t.Errorf("dedup counter = %d, want %d", got, res.DedupSkips)
	}
	if reg.Gauge("kondo_fuzz_indices").Value() != float64(res.Indices.Len()) {
		t.Error("indices gauge does not match the result")
	}
}

// TestRunWithoutObservabilityUnchanged pins that a campaign with a
// bare context behaves identically to the same campaign with tracing
// and metrics attached — instrumentation must not perturb the
// deterministic schedule.
func TestRunWithoutObservabilityUnchanged(t *testing.T) {
	space := array.MustSpace(32, 32)
	params := workload.ParamSpace{{Lo: 0, Hi: 31}, {Lo: 0, Hi: 31}}
	run := func(ctx context.Context) *Result {
		cfg := DefaultConfig()
		cfg.Seed = 3
		cfg.MaxIter = 200
		f, err := New(params, space, rectEvaluator(space, 4, 12, 4, 12), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(context.Background())
	traced := run(obs.WithRegistry(obs.WithTrace(context.Background(), obs.NewTrace()), obs.NewRegistry()))
	if plain.Evaluations != traced.Evaluations || plain.Indices.Len() != traced.Indices.Len() ||
		plain.Batches != traced.Batches || plain.StopReason != traced.StopReason {
		t.Errorf("instrumented campaign diverged: %+v vs %+v", plain, traced)
	}
}
