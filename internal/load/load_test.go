package load

import (
	"context"
	"net/http"
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

func TestRunWarmupExcludedFromWindow(t *testing.T) {
	_, ts := startOrigin(t, array.MustSpace(32, 32), []int{8, 8})
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Mode:        Closed,
		Popularity:  Uniform,
		Requests:    64,
		Concurrency: 2,
		Warmup:      128, // touches most of the 16 chunks
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 64 {
		t.Fatalf("requests = %d, want 64 (warmup excluded)", res.Requests)
	}
	if res.Fetch.Elements != 64 {
		t.Fatalf("window elements = %d, want 64", res.Fetch.Elements)
	}
	// A warmed cache over 16 chunks must serve mostly hits.
	if res.HitRate < 0.5 {
		t.Fatalf("warm run hit rate = %v, want >= 0.5", res.HitRate)
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

func TestRunRampStages(t *testing.T) {
	_, ts := startOrigin(t, array.MustSpace(32, 32), []int{8, 8})
	res, err := Run(context.Background(), Config{
		BaseURL:    ts.URL,
		Mode:       Closed,
		Popularity: Zipf,
		Seed:       11,
		Stages: []Stage{
			{Requests: 50, Concurrency: 2},
			{Requests: 100, Concurrency: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(res.Stages))
	}
	if res.Stages[0].Requests != 50 || res.Stages[1].Requests != 100 {
		t.Fatalf("stage counts = %d/%d, want 50/100", res.Stages[0].Requests, res.Stages[1].Requests)
	}
	if res.Requests != 150 {
		t.Fatalf("total = %d, want 150", res.Requests)
	}
	if res.Stages[1].Concurrency != 4 {
		t.Fatalf("stage 1 concurrency = %d", res.Stages[1].Concurrency)
	}
}

func TestRunSoakPollsSloz(t *testing.T) {
	srv, _ := startOrigin(t, array.MustSpace(32, 32), []int{8, 8})
	slo := obs.NewSLO(time.Minute, obs.SLOObjective{
		Name:         "chunk",
		LatencyBound: time.Second,
		Target:       0.99,
		Source:       srv.Recorder().SLOSource("chunk"),
	})
	// Serve the origin as kondo-serve does, /sloz beside the data plane.
	ep := obs.NewEndpoints(srv.Registry())
	ep.SetSLO(slo)
	ts := httptest.NewServer(ep.Handler(srv.Handler()))
	defer ts.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:      ts.URL,
		Mode:         Closed,
		Requests:     300,
		Concurrency:  2,
		Seed:         5,
		SoakInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SoakPolls == 0 {
		t.Fatal("soak mode performed no /sloz polls")
	}
	if res.SoakViolations != 0 {
		t.Fatalf("healthy run reported %d budget violations", res.SoakViolations)
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
		"kondo_load_stage",
		"kondo_load_target",
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

// TestRunHungMetaHonorsFetchTimeout pins that the harness resolves
// geometry through its fetcher: an origin whose /meta never answers
// fails Run within the fetcher's FetchTimeout, even under a context
// with no deadline (kondo-load's).
func TestRunHungMetaHonorsFetchTimeout(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(block) // release handlers before ts.Close waits on them

	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Config{
			BaseURL:  ts.URL,
			Requests: 10,
			Fetcher: dataserve.FetcherConfig{
				FetchTimeout:   200 * time.Millisecond,
				RequestTimeout: 100 * time.Millisecond,
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run against a hung /meta succeeded")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Run still blocked on a hung /meta after 3s")
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
