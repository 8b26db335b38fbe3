// Package status serves a running fuzz campaign's live views over
// HTTP: a /statusz JSON snapshot of the coverage series and a
// /statusz/stream Server-Sent-Events feed of points as they are
// recorded. `cmd/kondo -status-addr` mounts it
// next to a campaign and feeds it through fuzz.Config.OnCoverage; the
// daemon's shared observability endpoints (obs.Endpoints: /metrics,
// /healthz, /buildz, /tracez) serve beside it (DESIGN.md §9).
package status

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/fuzz"
)

// Campaign is the static metadata of the campaign being watched.
type Campaign struct {
	Program string `json:"program"`
	Dataset string `json:"dataset,omitempty"`
	Dims    []int  `json:"dims"`
	Workers int    `json:"workers"`
	// StartedAt is the campaign start in RFC 3339 form.
	StartedAt string `json:"started_at"`
}

// Snapshot is the /statusz response body.
type Snapshot struct {
	Campaign Campaign `json:"campaign"`
	// Done reports whether the campaign has finished.
	Done bool `json:"done"`
	// Coverage is the series recorded so far (points in round order).
	Coverage *fuzz.CoverageSeries `json:"coverage"`
	// Verify is the live chunk-verification state (host-supplied via
	// SetVerifySource); omitted when no verifying client runs here.
	Verify any `json:"verify,omitempty"`
}

// Server accumulates coverage points and serves them. Publish is safe
// to call from the campaign goroutine while HTTP handlers read
// concurrently; slow SSE subscribers are dropped rather than allowed
// to block the campaign.
type Server struct {
	meta      Campaign
	dims      []int
	spaceSize int64

	coverage *feed

	mu sync.Mutex
	// verifySource backs the /statusz verify view (see verify.go); nil
	// unless the process runs a verifying recovery client.
	verifySource func() any
}

// NewServer returns a status server for one campaign.
func NewServer(meta Campaign, dims []int, spaceSize int64) *Server {
	if meta.StartedAt == "" {
		meta.StartedAt = time.Now().UTC().Format(time.RFC3339)
	}
	if meta.Dims == nil {
		meta.Dims = dims
	}
	return &Server{
		meta:      meta,
		dims:      dims,
		spaceSize: spaceSize,
		coverage:  newFeed(),
	}
}

// Publish appends one coverage point and fans it out to stream
// subscribers. It is the fuzz.Config.OnCoverage hook.
func (s *Server) Publish(p fuzz.CoveragePoint) { s.coverage.publish(p) }

// Finish marks the campaign done and ends every open stream.
func (s *Server) Finish() { s.coverage.close() }

// Handler returns the campaign views; a daemon serves it behind
// obs.Endpoints.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.Handle("/statusz/stream", s.coverage)
	return mux
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	points, done := s.coverage.snapshot()
	snap := Snapshot{
		Campaign: s.meta,
		Done:     done,
		Coverage: &fuzz.CoverageSeries{Dims: s.dims, SpaceSize: s.spaceSize, Points: points},
	}
	s.mu.Lock()
	verifySrc := s.verifySource
	s.mu.Unlock()
	if verifySrc != nil {
		// Read outside the lock: the source snapshots atomics.
		snap.Verify = verifySrc()
	}
	writeJSON(w, http.StatusOK, snap)
}

// writeEvent writes one SSE frame. A nil payload writes an empty data
// line (used by the terminal "done" event).
func writeEvent(w http.ResponseWriter, event string, payload any) {
	fmt.Fprintf(w, "event: %s\n", event)
	if payload == nil {
		fmt.Fprint(w, "data: {}\n\n")
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		fmt.Fprint(w, "data: {}\n\n")
		return
	}
	fmt.Fprintf(w, "data: %s\n\n", data)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
