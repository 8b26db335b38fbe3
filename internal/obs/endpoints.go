package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
)

// Endpoints is the observability handler set every Kondo daemon
// mounts next to its own views (DESIGN.md §8):
//
//	/metrics  the registry's Prometheus text (?format=prom is accepted
//	          and selects the same body)
//	/healthz  200 "ok", or 503 "draining" once SetDraining(true)
//	/buildz   Build() as JSON
//	/tracez   the attached trace's Export (?max=N bounds the event
//	          count); 404 until SetTrace
//
// The setters are safe to call while requests are being served.
type Endpoints struct {
	reg      *Registry
	draining atomic.Bool
	trace    atomic.Pointer[Trace]
}

// NewEndpoints returns the handler set over reg and registers
// kondo_build_info on it, so a scrape of any daemon identifies the
// binary serving it.
func NewEndpoints(reg *Registry) *Endpoints {
	registerBuildInfo(reg)
	return &Endpoints{reg: reg}
}

// SetTrace attaches tr: /tracez serves its export, and
// kondo_trace_dropped_events mirrors tr.Dropped at exposition time, so
// a silently truncated trace shows up on /metrics instead of only in
// the export. A nil tr leaves the set unchanged.
func (e *Endpoints) SetTrace(tr *Trace) {
	if tr == nil {
		return
	}
	e.reg.GaugeFunc("kondo_trace_dropped_events", func() float64 {
		return float64(tr.Dropped())
	})
	e.trace.Store(tr)
}

// SetDraining flips the drain flag: once true, /healthz answers 503 so
// load balancers route away while in-flight requests complete. Flag it
// before http.Server.Shutdown and give the balancer a beat to notice.
func (e *Endpoints) SetDraining(v bool) { e.draining.Store(v) }

// Draining reports the drain flag.
func (e *Endpoints) Draining() bool { return e.draining.Load() }

// Handler returns a daemon's one mux: the set's paths, with every
// other path delegated to views (the daemon's own endpoints; nil for
// none).
func (e *Endpoints) Handler(views http.Handler) http.Handler {
	mux := http.NewServeMux()
	if views != nil {
		mux.Handle("/", views)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = e.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if e.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/buildz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Build())
	})
	mux.HandleFunc("/tracez", e.tracez)
	return mux
}

func (e *Endpoints) tracez(w http.ResponseWriter, r *http.Request) {
	tr := e.trace.Load()
	if tr == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no trace attached"})
		return
	}
	max := 0
	if arg := r.URL.Query().Get("max"); arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad max %q", arg)})
			return
		}
		max = v
	}
	writeJSON(w, http.StatusOK, tr.Export(max))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
