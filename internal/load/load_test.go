package load

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/dataserve"
	"repro/internal/obs"
	"repro/internal/sdf"
)

// startOrigin materializes a filled origin and serves it.
func startOrigin(t testing.TB, space array.Space, chunk []int) (*dataserve.Server, *httptest.Server) {
	t.Helper()
	return startNamedOrigin(t, "data", space, chunk)
}

// startNamedOrigin is startOrigin with the dataset named name.
func startNamedOrigin(t testing.TB, name string, space array.Space, chunk []int) (*dataserve.Server, *httptest.Server) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "origin.sdf")
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset(name, space, array.Float64, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return float64(lin)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := dataserve.NewServer(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestRunClosedLoopDeterministicCount(t *testing.T) {
	_, ts := startOrigin(t, array.MustSpace(32, 32), []int{8, 8})
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Mode:        Closed,
		Popularity:  Zipf,
		Requests:    200,
		Concurrency: 4,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 {
		t.Fatalf("requests = %d, want exactly 200 (closed loop, count-bounded)", res.Requests)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Throughput <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible result: %+v", res)
	}
	// Zipf over a 16-chunk grid with 200 requests must hit the cache.
	if res.HitRate <= 0 {
		t.Fatalf("zipf run had zero cache hits: %+v", res.Fetch)
	}
	if res.Fetch.Elements != 200 {
		t.Fatalf("window elements = %d, want 200", res.Fetch.Elements)
	}
}

func TestRunOpenLoopPacesAndSheds(t *testing.T) {
	_, ts := startOrigin(t, array.MustSpace(32, 32), []int{8, 8})
	start := time.Now()
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Mode:        Open,
		Popularity:  Uniform,
		Rate:        400,
		Requests:    100,
		Concurrency: 8,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 100 arrivals at 400/s is a 250ms schedule; allow generous slack
	// but catch a generator that ignores pacing entirely (instant) or
	// deadlocks (seconds).
	if elapsed < 200*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("open-loop pacing off: 100 arrivals at 400/s took %v", elapsed)
	}
	if res.Requests+res.Shed != 100 {
		t.Fatalf("requests(%d) + shed(%d) != 100 arrivals", res.Requests, res.Shed)
	}
	if res.Requests == 0 {
		t.Fatal("everything was shed")
	}
}

func TestRunEmitsInstrumentsAndTraces(t *testing.T) {
	srv, ts := startOrigin(t, array.MustSpace(32, 32), []int{8, 8})
	serverTr := obs.NewTrace()
	srv.EnableTracing(serverTr)

	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	res, err := Run(ctx, Config{
		BaseURL:     ts.URL,
		Mode:        Closed,
		Requests:    40,
		Concurrency: 2,
		Seed:        9,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 40 {
		t.Fatalf("requests = %d", res.Requests)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"kondo_load_requests_total 40",
		"kondo_load_errors_total 0",
		"kondo_load_request_seconds_count 40",
		"kondo_load_inflight",
		"kondo_load_shed_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	// The run's fetch spans landed in the caller's trace, and the
	// server recorded child spans — stitching them yields 2 pids.
	if tr.Len() == 0 {
		t.Fatal("caller trace recorded nothing")
	}
	tr.Merge(2, serverTr.Export(0))
	if pids := tr.PIDs(); len(pids) < 2 {
		t.Fatalf("stitched pids = %v", pids)
	}
}

// TestRunEscapesDatasetName drives a dataset whose name carries
// query-string metacharacters: the harness's /meta lookup and the
// fetcher's chunk requests must both carry it intact.
func TestRunEscapesDatasetName(t *testing.T) {
	const name = "t+1&x"
	_, ts := startNamedOrigin(t, name, array.MustSpace(16, 16), []int{8, 8})
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Dataset:     name,
		Mode:        Closed,
		Requests:    20,
		Concurrency: 2,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 20 || res.Errors != 0 {
		t.Fatalf("requests = %d, errors = %d, want 20/0", res.Requests, res.Errors)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Mode: "weird"}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Mode: Open, Requests: 5}); err == nil {
		t.Fatal("open loop without rate accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x"}); err == nil {
		t.Fatal("unbounded run accepted")
	}
}
