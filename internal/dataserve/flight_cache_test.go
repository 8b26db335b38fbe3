package dataserve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
)

// TestFlightGroupPanicReleasesKey pins the singleflight panic path: a
// panicking fn must still remove the flight entry and release its
// waiters. Before the deferred cleanup, the entry stayed in the map
// with an unclosed done channel and every later fetch of the key
// deadlocked.
func TestFlightGroupPanicReleasesKey(t *testing.T) {
	g := newFlightGroup[string, []float64]()

	leaderIn := make(chan struct{})
	waiterJoined := make(chan struct{})

	// A waiter joins the flight while the leader is inside fn, so it is
	// blocked on the done channel when the panic fires.
	var waiterVals []float64
	var waiterErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-leaderIn
		close(waiterJoined)
		waiterVals, waiterErr, _ = g.do("k", func() ([]float64, error) {
			t.Error("waiter ran fn; it should have joined the leader's flight")
			return nil, nil
		})
	}()

	// The leader's panic must propagate to the initiating caller.
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("leader's panic did not propagate")
			}
		}()
		g.do("k", func() ([]float64, error) {
			close(leaderIn)
			<-waiterJoined
			// Give the waiter a beat to actually block on done.
			time.Sleep(10 * time.Millisecond)
			panic("fetch exploded")
		})
	}()

	wg.Wait()
	if waiterErr == nil {
		t.Fatal("waiter of a panicked flight got a nil error")
	}
	if !strings.Contains(waiterErr.Error(), "panicked") {
		t.Errorf("waiter error %q does not mention the panic", waiterErr)
	}
	if waiterVals != nil {
		t.Errorf("waiter of a panicked flight got values %v", waiterVals)
	}

	// The key must be usable again: a post-panic fetch runs fn and
	// succeeds instead of blocking on the dead flight.
	done := make(chan struct{})
	var vals []float64
	var err error
	go func() {
		defer close(done)
		vals, err, _ = g.do("k", func() ([]float64, error) {
			return []float64{42}, nil
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("post-panic fetch of the same key deadlocked")
	}
	if err != nil {
		t.Fatalf("post-panic fetch failed: %v", err)
	}
	if len(vals) != 1 || vals[0] != 42 {
		t.Errorf("post-panic fetch returned %v, want [42]", vals)
	}
}

// TestFlightGroupErrorNotCached checks a plain error (no panic) is
// handed to waiters and the key is immediately retryable.
func TestFlightGroupErrorNotCached(t *testing.T) {
	g := newFlightGroup[string, []float64]()
	sentinel := errors.New("boom")
	if _, err, _ := g.do("k", func() ([]float64, error) { return nil, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	vals, err, _ := g.do("k", func() ([]float64, error) { return []float64{1}, nil })
	if err != nil || len(vals) != 1 {
		t.Fatalf("retry after error: vals %v err %v", vals, err)
	}
}

// TestChunkCacheHitAllocatesNothing pins the read-only chunk
// invariant: chunk values are written once, by the frame decoder, so a
// hit hands out the resident slice instead of copying the whole chunk.
// A hit through the whole FetchContext path allocates nothing either:
// the geometry lookup, the chunk id and the element's place in its
// clipped chunk, and the struct cache key.
func TestChunkCacheHitAllocatesNothing(t *testing.T) {
	c := newChunkCache(1 << 20)
	vals := make([]float64, 32*32)
	vals[7] = 7
	c.put(chunkKey{dataset: "k"}, vals)
	var got []float64
	if allocs := testing.AllocsPerRun(100, func() { got, _ = c.get(chunkKey{dataset: "k"}) }); allocs != 0 {
		t.Errorf("cache hit allocates %v times, want 0", allocs)
	}
	if len(got) != len(vals) || got[7] != 7 {
		t.Fatalf("hit returned %d values, want the %d put", len(got), len(vals))
	}

	// 40×24 in 16×16 chunks: (37, 21) lies in the corner chunk, clipped
	// to 8×8.
	space := array.MustSpace(40, 24)
	f := localFetcher(t, writeOriginFile(t, space, []int{16, 16}))
	ctx := context.Background()
	ix := array.NewIndex(37, 21)
	if _, err := f.FetchContext(ctx, "data", ix); err != nil {
		t.Fatal(err)
	}
	var v float64
	var err error
	if allocs := testing.AllocsPerRun(100, func() { v, err = f.FetchContext(ctx, "data", ix) }); allocs != 0 {
		t.Errorf("FetchContext cache hit allocates %v times, want 0", allocs)
	}
	if err != nil || v != originValue(space, ix) {
		t.Fatalf("hit read %v, %v; want %v", v, err, originValue(space, ix))
	}
	if st := f.Stats(); st.CacheHits < 100 || st.RoundTrips != 2 {
		t.Fatalf("stats %+v, want the hits served from one chunk fetch after /meta", st)
	}
}
