package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// counter reads one endpoint's counter series back from the registry.
func counter(r *ServeRecorder, name, endpoint string) int64 {
	return r.Registry().Counter(name, obs.L("endpoint", endpoint)).Value()
}

// latency reads one endpoint's latency histogram back from the
// registry (the bounds argument is ignored for an existing series).
func latency(r *ServeRecorder, endpoint string) *obs.Histogram {
	return r.Registry().Histogram("kondo_serve_request_seconds", nil, obs.L("endpoint", endpoint))
}

func TestServeRecorderCounts(t *testing.T) {
	r := NewServeRecorder()
	r.Record("chunk", 200, 1024, 80*time.Microsecond)
	r.Record("chunk", 200, 2048, 300*time.Microsecond)
	r.Record("chunk", 404, 32, 2*time.Second) // beyond the last bucket
	r.Record("meta", 200, 16, time.Millisecond)

	if req, errs, b := counter(r, "kondo_serve_requests_total", "chunk"),
		counter(r, "kondo_serve_errors_total", "chunk"),
		counter(r, "kondo_serve_response_bytes_total", "chunk"); req != 3 || errs != 1 || b != 1024+2048+32 {
		t.Errorf("chunk = %d req, %d err, %d B", req, errs, b)
	}
	if req := counter(r, "kondo_serve_requests_total", "meta"); req != 1 {
		t.Errorf("meta requests = %d, want 1", req)
	}
	// 80µs lands in the second bucket (≤100µs), 300µs in the fourth
	// (≤500µs), 2s in the overflow bucket.
	h := latency(r, "chunk")
	c := h.BucketCounts()
	if len(c) != len(serveBuckets)+1 {
		t.Fatalf("latency has %d buckets, want %d", len(c), len(serveBuckets)+1)
	}
	if c[1] != 1 || c[3] != 1 || c[len(serveBuckets)] != 1 {
		t.Errorf("latency buckets = %v", c)
	}
	if h.Count() != 3 || h.Sum() <= 2 {
		t.Errorf("latency count %d sum %v, want 3 observations over 2s", h.Count(), h.Sum())
	}
}

func TestServeRecorderConcurrent(t *testing.T) {
	r := NewServeRecorder()
	var sb strings.Builder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record("chunk", 200, 8, time.Microsecond)
				if i == 0 {
					sb.Reset()
					_ = r.Registry().WritePrometheus(&sb)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := counter(r, "kondo_serve_requests_total", "chunk"); got != 800 {
		t.Errorf("requests = %d, want 800", got)
	}
}

func TestServeRecorderDefaultBucketsUnchanged(t *testing.T) {
	// The recorder must keep the documented bucket bounds so existing
	// /metrics consumers see an identical bucket layout.
	r := NewServeRecorder()
	r.Record("chunk", 200, 8, time.Microsecond)
	want := []float64{50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3, 1}
	got := latency(r, "chunk").Bounds()
	if len(got) != len(want) {
		t.Fatalf("recorder has %d bounds, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bound %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestServeRecorderPrometheus(t *testing.T) {
	r := NewServeRecorder()
	r.Record("chunk", 200, 128, 80*time.Microsecond)
	r.Record("chunk", 500, 0, 300*time.Microsecond)
	var sb strings.Builder
	if err := r.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`kondo_serve_requests_total{endpoint="chunk"} 2`,
		`kondo_serve_errors_total{endpoint="chunk"} 1`,
		`kondo_serve_response_bytes_total{endpoint="chunk"} 128`,
		"# TYPE kondo_serve_request_seconds histogram",
		`kondo_serve_request_seconds_count{endpoint="chunk"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
