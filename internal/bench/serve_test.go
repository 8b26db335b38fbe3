package bench

import (
	"context"
	"testing"
)

// TestServeMetricsContract pins the serving experiment's
// machine-readable surface: the closed-loop counts are exact, the
// stitched client+server trace spans both pids, and both gated
// overhead copies (telemetry and merkle verification) are floored at
// the serving observability budget.
func TestServeMetricsContract(t *testing.T) {
	if testing.Short() {
		t.Skip("drives twenty loopback load runs; skipped in -short")
	}
	opts := QuickOptions()
	opts.Seed = 12345
	rep, err := Run(context.Background(), "serve", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "errors", "trace_pids",
		"throughput_rps", "p50_ms", "p95_ms", "p99_ms",
		"cache_hit_rate",
		"serve_overhead", "serve_overhead_gated",
		"verify_proofs", "verify_failed",
		"verify_overhead", "verify_overhead_gated",
	} {
		if _, ok := rep.Metrics[key]; !ok {
			t.Errorf("metric %q missing", key)
		}
	}
	if rep.Metrics["requests"] != 2500 {
		t.Errorf("requests = %v, want exactly 2500 (quick closed loop)", rep.Metrics["requests"])
	}
	if rep.Metrics["errors"] != 0 {
		t.Errorf("errors = %v", rep.Metrics["errors"])
	}
	if rep.Metrics["trace_pids"] != 2 {
		t.Errorf("stitched trace spans %v pids, want 2", rep.Metrics["trace_pids"])
	}
	if rep.Metrics["serve_overhead_gated"] < serveOverheadFloor {
		t.Errorf("gated overhead %v below the %v floor", rep.Metrics["serve_overhead_gated"], serveOverheadFloor)
	}
	if rep.Metrics["verify_overhead_gated"] < serveOverheadFloor {
		t.Errorf("gated verify overhead %v below the %v floor", rep.Metrics["verify_overhead_gated"], serveOverheadFloor)
	}
	if rep.Metrics["verify_failed"] != 0 {
		t.Errorf("verify_failed = %v, want exactly 0", rep.Metrics["verify_failed"])
	}
	if rep.Metrics["verify_proofs"] <= 0 {
		t.Errorf("verify_proofs = %v, want > 0", rep.Metrics["verify_proofs"])
	}
	if rep.Metrics["throughput_rps"] <= 0 {
		t.Errorf("throughput = %v", rep.Metrics["throughput_rps"])
	}
	if len(rep.Rows) != 3 {
		t.Errorf("rows = %d, want plain + traced + verified", len(rep.Rows))
	}
}
