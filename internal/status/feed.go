package status

import (
	"net/http"
	"sync"
)

// subBuffer is the per-subscriber event buffer; a subscriber that
// falls further behind than this is disconnected.
const subBuffer = 64

// feed is one Server-Sent-Events broadcaster: published events are
// kept in a replay backlog and fanned out to live subscribers, a
// subscriber that falls subBuffer events behind is dropped rather than
// allowed to block the publisher, and every stream ends with an
// `event: done` frame once the feed closes. Each frame is
// `event: <name>` plus one `data:` line of the event's JSON.
type feed[T any] struct {
	name string // SSE event name of every data frame
	keep int    // backlog length replayed to new subscribers; 0 keeps all

	mu     sync.Mutex
	log    []T
	subs   map[int]chan T
	next   int
	closed bool
}

func newFeed[T any](name string, keep int) *feed[T] {
	return &feed[T]{name: name, keep: keep, subs: make(map[int]chan T)}
}

// publish appends v to the backlog and sends it to every subscriber.
// A no-op once the feed is closed.
func (f *feed[T]) publish(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.log = append(f.log, v)
	if f.keep > 0 && len(f.log) > f.keep {
		f.log = f.log[len(f.log)-f.keep:]
	}
	for id, ch := range f.subs {
		select {
		case ch <- v:
		default:
			// The subscriber's buffer is full; drop it so the publisher
			// never blocks on a stalled client.
			close(ch)
			delete(f.subs, id)
		}
	}
}

// close marks the feed done and ends every open stream.
func (f *feed[T]) close() {
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
func (f *feed[T]) snapshot() ([]T, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]T(nil), f.log...), f.closed
}

// subscribe registers a stream subscriber, returning the backlog so
// far, the live channel (already closed once the feed is), and an
// unsubscribe func.
func (f *feed[T]) subscribe() ([]T, chan T, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	backlog := append([]T(nil), f.log...)
	if f.closed {
		ch := make(chan T)
		close(ch)
		return backlog, ch, func() {}
	}
	id := f.next
	f.next++
	ch := make(chan T, subBuffer)
	f.subs[id] = ch
	return backlog, ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		delete(f.subs, id)
	}
}

// ServeHTTP streams the feed: the backlog first, then live events,
// then `event: done` when the feed closes or the subscriber is dropped
// for lagging.
func (f *feed[T]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
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
	for _, v := range backlog {
		writeEvent(w, f.name, v)
	}
	flusher.Flush()
	for {
		select {
		case v, open := <-ch:
			if !open {
				// The feed finished or dropped us for lagging; a closed
				// channel yields everything buffered first.
				writeEvent(w, "done", nil)
				flusher.Flush()
				return
			}
			writeEvent(w, f.name, v)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
