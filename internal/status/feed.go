package status

import (
	"net/http"
	"sync"

	"repro/internal/fuzz"
)

// subBuffer is the per-subscriber point buffer; a subscriber that
// falls further behind than this is disconnected.
const subBuffer = 64

// feed is the coverage Server-Sent-Events broadcaster: every published
// point is kept in a backlog replayed to new subscribers (a stream's
// frames always concatenate to the whole campaign) and fanned out to
// live subscribers, a subscriber that falls subBuffer points behind is
// dropped rather than allowed to block the campaign, and every stream
// ends with an `event: done` frame once the feed closes. Each frame is
// `event: coverage` plus one `data:` line of the point's JSON.
type feed struct {
	mu     sync.Mutex
	log    []fuzz.CoveragePoint
	subs   map[int]chan fuzz.CoveragePoint
	next   int
	closed bool
}

func newFeed() *feed {
	return &feed{subs: make(map[int]chan fuzz.CoveragePoint)}
}

// publish appends p to the backlog and sends it to every subscriber.
// A no-op once the feed is closed.
func (f *feed) publish(p fuzz.CoveragePoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.log = append(f.log, p)
	for id, ch := range f.subs {
		select {
		case ch <- p:
		default:
			// The subscriber's buffer is full; drop it so the publisher
			// never blocks on a stalled client.
			close(ch)
			delete(f.subs, id)
		}
	}
}

// close marks the feed done and ends every open stream.
func (f *feed) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for id, ch := range f.subs {
		close(ch)
		delete(f.subs, id)
	}
}

// snapshot returns a copy of the backlog and whether the feed closed.
func (f *feed) snapshot() ([]fuzz.CoveragePoint, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fuzz.CoveragePoint(nil), f.log...), f.closed
}

// subscribe registers a stream subscriber, returning the backlog so
// far, the live channel (already closed once the feed is), and an
// unsubscribe func.
func (f *feed) subscribe() ([]fuzz.CoveragePoint, chan fuzz.CoveragePoint, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	backlog := append([]fuzz.CoveragePoint(nil), f.log...)
	if f.closed {
		ch := make(chan fuzz.CoveragePoint)
		close(ch)
		return backlog, ch, func() {}
	}
	id := f.next
	f.next++
	ch := make(chan fuzz.CoveragePoint, subBuffer)
	f.subs[id] = ch
	return backlog, ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		delete(f.subs, id)
	}
}

// ServeHTTP streams the feed: the backlog first, then live points,
// then `event: done` when the feed closes or the subscriber is dropped
// for lagging.
func (f *feed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, map[string]string{"error": "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	backlog, ch, cancel := f.subscribe()
	defer cancel()
	for _, p := range backlog {
		writeEvent(w, "coverage", p)
	}
	flusher.Flush()
	for {
		select {
		case p, open := <-ch:
			if !open {
				// The feed finished or dropped us for lagging; a closed
				// channel yields everything buffered first.
				writeEvent(w, "done", nil)
				flusher.Flush()
				return
			}
			writeEvent(w, "coverage", p)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
