package obs

import (
	"bufio"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("kondo_test_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Get-or-create returns the same instrument.
	if r.Counter("kondo_test_total") != c {
		t.Error("second lookup returned a different counter")
	}

	g := r.Gauge("kondo_test_gauge")
	g.Set(2.5)
	g.Set(2)
	if got := g.Value(); got != 2.0 {
		t.Errorf("gauge = %v, want 2", got)
	}

	r.GaugeFunc("kondo_test_fn", func() float64 { return 42 })
	if got := r.Gauge("kondo_test_fn").Value(); got != 42 {
		t.Errorf("gauge func = %v, want 42", got)
	}

	// Label sets are distinct series; label order does not matter.
	a := r.Counter("kondo_labeled_total", L("ep", "chunk"), L("zone", "a"))
	b := r.Counter("kondo_labeled_total", L("zone", "a"), L("ep", "chunk"))
	if a != b {
		t.Error("label order created a distinct series")
	}
	other := r.Counter("kondo_labeled_total", L("ep", "slab"), L("zone", "a"))
	if other == a {
		t.Error("distinct label values shared a series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("kondo_test_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	// 0.05 and 0.1 land in <=0.1 (boundary is inclusive), 0.5 in <=1,
	// 2 in <=10, 100 overflows.
	want := []int64{2, 1, 1, 1}
	got := h.BucketCounts()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if s := h.Sum(); s < 102.64 || s > 102.66 {
		t.Errorf("sum = %v, want ~102.65", s)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("kondo_mismatch")
	defer func() {
		if recover() == nil {
			t.Error("gauge lookup of a counter name did not panic")
		}
	}()
	r.Gauge("kondo_mismatch")
}

func TestNilRegistryAndInstrumentsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	g := r.Gauge("y")
	g.Set(1)
	h := r.Histogram("z", []float64{1})
	h.Observe(2)
	r.GaugeFunc("f", func() float64 { return 1 })
	r.SetHelp("x", "ignored")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments accumulated state")
	}
}

// TestPrometheusExposition validates the text format: headers,
// cumulative buckets, sum/count, sorted deterministic output.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("kondo_serve_requests_total", "Requests per endpoint.")
	r.Counter("kondo_serve_requests_total", L("endpoint", "chunk")).Add(3)
	r.Counter("kondo_serve_requests_total", L("endpoint", "slab")).Add(1)
	r.Gauge("kondo_cache_bytes").Set(1024)
	h := r.Histogram("kondo_serve_request_seconds", []float64{0.001, 0.1}, L("endpoint", "chunk"))
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP kondo_serve_requests_total Requests per endpoint.\n",
		"# TYPE kondo_serve_requests_total counter\n",
		`kondo_serve_requests_total{endpoint="chunk"} 3` + "\n",
		`kondo_serve_requests_total{endpoint="slab"} 1` + "\n",
		"# TYPE kondo_cache_bytes gauge\n",
		"kondo_cache_bytes 1024\n",
		"# TYPE kondo_serve_request_seconds histogram\n",
		`kondo_serve_request_seconds_bucket{endpoint="chunk",le="0.001"} 1` + "\n",
		`kondo_serve_request_seconds_bucket{endpoint="chunk",le="0.1"} 2` + "\n",
		`kondo_serve_request_seconds_bucket{endpoint="chunk",le="+Inf"} 3` + "\n",
		`kondo_serve_request_seconds_count{endpoint="chunk"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if err := validatePromText(out); err != nil {
		t.Errorf("exposition does not parse: %v\n%s", err, out)
	}
	// Deterministic output.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("exposition is not deterministic")
	}
}

// validatePromText is a minimal Prometheus text-format parser: every
// line is a comment, blank, or `name{labels} value`.
func validatePromText(s string) error {
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("line %q: want 2 fields", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				return fmt.Errorf("line %q: unterminated labels", line)
			}
			name = name[:i]
		}
		for _, ch := range name {
			if !(ch == '_' || ch == ':' ||
				(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')) {
				return fmt.Errorf("line %q: bad metric name char %q", line, ch)
			}
		}
		v := fields[1]
		if v != "+Inf" && v != "-Inf" && v != "NaN" {
			if _, err := parseFloat(v); err != nil {
				return fmt.Errorf("line %q: bad value: %v", line, err)
			}
		}
	}
	return sc.Err()
}

func parseFloat(s string) (float64, error) {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	return f, err
}

// TestRegistryConcurrent hammers get-or-create, increments, histogram
// observes, and exposition from many goroutines; run under -race this
// is the registry's concurrency contract.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := fmt.Sprintf("ep%d", w%2)
			for i := 0; i < perWorker; i++ {
				r.Counter("kondo_conc_total", L("endpoint", ep)).Inc()
				r.Gauge("kondo_conc_gauge").Set(float64(i))
				r.Histogram("kondo_conc_seconds", []float64{0.01, 0.1, 1}).Observe(float64(i) / perWorker)
				if i%50 == 0 {
					// Exposition concurrent with observes must not race.
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	total := r.Counter("kondo_conc_total", L("endpoint", "ep0")).Value() +
		r.Counter("kondo_conc_total", L("endpoint", "ep1")).Value()
	if total != workers*perWorker {
		t.Errorf("counter total = %d, want %d", total, workers*perWorker)
	}
	if got := r.Histogram("kondo_conc_seconds", nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestRegisterBuildInfo: every daemon's endpoint set registers the
// build identity gauge.
func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	NewEndpoints(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "kondo_build_info{") || !strings.Contains(out, "go_version=\"go") {
		t.Errorf("build info gauge missing from exposition:\n%s", out)
	}
	if bi := Build(); bi.GoVersion == "" {
		t.Error("Build() lacks a Go version")
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncEnabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
