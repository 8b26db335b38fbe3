package metrics

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// serveBuckets are the latency histogram bucket upper bounds of the
// recovery data plane, spanning in-memory cache-adjacent handling
// (tens of microseconds) to a slow origin disk or network (seconds).
var serveBuckets = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
}

// epInstruments caches one endpoint's registered instruments so the
// request hot path is four atomic updates, not four registry lookups.
type epInstruments struct {
	requests *obs.Counter
	errors   *obs.Counter
	bytes    *obs.Counter
	latency  *obs.Histogram
}

// ServeRecorder collects per-endpoint request metrics for the recovery
// data plane into an obs.Registry, whose Prometheus text exposition is
// the server's /metrics body. It is safe for concurrent use by HTTP
// handlers.
type ServeRecorder struct {
	reg  *obs.Registry
	secs []float64 // latency bucket bounds in seconds, ascending

	mu  sync.Mutex
	per map[string]*epInstruments
}

// NewServeRecorder returns an empty recorder.
func NewServeRecorder() *ServeRecorder {
	secs := make([]float64, len(serveBuckets))
	for i, b := range serveBuckets {
		secs[i] = b.Seconds()
	}
	reg := obs.NewRegistry()
	reg.SetHelp("kondo_serve_requests_total", "Requests served, by endpoint.")
	reg.SetHelp("kondo_serve_errors_total", "Responses with status >= 400, by endpoint.")
	reg.SetHelp("kondo_serve_response_bytes_total", "Payload bytes written, by endpoint.")
	reg.SetHelp("kondo_serve_request_seconds", "Request latency, by endpoint.")
	return &ServeRecorder{
		reg:  reg,
		secs: secs,
		per:  make(map[string]*epInstruments),
	}
}

// Registry exposes the recorder's instrument registry, so callers can
// register adjacent gauges (cache sizes, build info) and serve the
// whole set as one Prometheus exposition.
func (r *ServeRecorder) Registry() *obs.Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

func (r *ServeRecorder) endpoint(name string) *epInstruments {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.per[name]
	if !ok {
		l := obs.L("endpoint", name)
		e = &epInstruments{
			requests: r.reg.Counter("kondo_serve_requests_total", l),
			errors:   r.reg.Counter("kondo_serve_errors_total", l),
			bytes:    r.reg.Counter("kondo_serve_response_bytes_total", l),
			latency:  r.reg.Histogram("kondo_serve_request_seconds", r.secs, l),
		}
		r.per[name] = e
	}
	return e
}

// Record notes one completed request: its endpoint, HTTP status,
// payload bytes written, and wall-clock latency.
func (r *ServeRecorder) Record(endpoint string, status int, bytes int64, elapsed time.Duration) {
	e := r.endpoint(endpoint)
	e.requests.Inc()
	if status >= 400 {
		e.errors.Inc()
	}
	e.bytes.Add(bytes)
	e.latency.Observe(elapsed.Seconds())
}
