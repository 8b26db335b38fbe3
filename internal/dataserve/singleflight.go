package dataserve

import (
	"fmt"
	"sync"
)

// flightGroup deduplicates concurrent fetches of the same key: the
// first caller performs the work, later callers block until it
// finishes and share the result. Results are not cached here — the
// chunkCache (or the geometry map) does that — so a failed flight is
// retried by the next caller. It is generic over the key and result
// types because both chunk fetches (chunkKey, []float64) and geometry
// resolution (dataset name, *dsGeom) collapse through it.
type flightGroup[K comparable, T any] struct {
	mu     sync.Mutex
	flight map[K]*flightCall[T]
}

type flightCall[T any] struct {
	done chan struct{}
	val  T
	err  error
	dups int
}

func newFlightGroup[K comparable, T any]() *flightGroup[K, T] {
	return &flightGroup[K, T]{flight: make(map[K]*flightCall[T])}
}

// do runs fn under key, collapsing concurrent duplicates onto the
// first in-flight call. It reports how many callers shared the result
// via the dup return (0 for the caller that did the work). The
// in-flight call runs under the initiating caller's context; a waiter
// whose initiator is canceled receives the initiator's error and may
// simply retry.
func (g *flightGroup[K, T]) do(key K, fn func() (T, error)) (val T, err error, dup bool) {
	g.mu.Lock()
	if c, ok := g.flight[key]; ok {
		c.dups++
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall[T]{done: make(chan struct{})}
	g.flight[key] = c
	g.mu.Unlock()

	// Cleanup runs deferred so a panicking fn still removes the flight
	// entry and releases its waiters — otherwise every later fetch of
	// this key would block on a done channel nobody will ever close.
	// Waiters observe an error (not the panic); the panic itself
	// propagates to the initiating caller.
	completed := false
	defer func() {
		if !completed {
			var zero T
			c.val, c.err = zero, fmt.Errorf("dataserve: in-flight fetch of key %v panicked", key)
		}
		g.mu.Lock()
		delete(g.flight, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	completed = true
	return c.val, c.err, false
}
