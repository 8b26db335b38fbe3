package status

import "net/http"

// Fleet view: when the process is a coordinator, /fleetz serves a
// point-in-time health snapshot of every worker and /fleetz/stream a
// Server-Sent-Events feed of lease lifecycle events. The status layer
// stays generic — the snapshot and events are opaque JSON-marshalable
// values supplied by cmd/kondo-coord (orchestra.FleetSnapshot and
// orchestra.FleetEvent), so no orchestra dependency leaks in here.

// fleetBacklog is how many recent lease events a new /fleetz/stream
// subscriber replays before going live — a tail, not the full history
// a coordinator accumulates over many campaigns.
const fleetBacklog = 64

// SetFleetSource installs the /fleetz snapshot provider. Until one is
// set the endpoint answers 404 (the process is not a coordinator).
// Safe to call concurrently with requests.
func (s *Server) SetFleetSource(fn func() any) {
	s.mu.Lock()
	s.fleetSource = fn
	s.mu.Unlock()
}

// PublishFleetEvent fans one lease lifecycle event out to
// /fleetz/stream subscribers and into the replay backlog. Like
// Publish, a subscriber that cannot keep up is dropped, never blocking
// the coordinator's protocol goroutines.
func (s *Server) PublishFleetEvent(ev any) { s.fleet.publish(ev) }

// handleFleetz serves the fleet health snapshot.
func (s *Server) handleFleetz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	src := s.fleetSource
	s.mu.Unlock()
	if src == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "not a coordinator"})
		return
	}
	writeJSON(w, http.StatusOK, src())
}
