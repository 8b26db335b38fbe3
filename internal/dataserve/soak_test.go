package dataserve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/sdf"
)

// TestFetcherSoakRace hammers one caching Fetcher from many goroutines
// under the race detector: a Zipfian key mix (heavy singleflight and
// cache contention on the hot chunks), mid-flight context
// cancellation, and an origin that randomly stalls responses. Every
// successful fetch must return the byte-identical origin value — a
// wrong value would mean a torn cache entry or a lost singleflight
// wakeup delivering another chunk's frame — and every failure must be
// a context/data-missing error, never a corruption.
func TestFetcherSoakRace(t *testing.T) {
	space := array.MustSpace(64, 64)
	chunk := []int{8, 8}
	srv, err := NewServer(writeOriginFile(t, space, chunk))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Wrap the handler with a random stall so in-flight requests
	// overlap cancellations and retries.
	var stalls atomic.Int64
	handler := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Per-request deterministic-ish jitter off the URL is not
		// needed; contention is the point, not reproducibility.
		if rand.Intn(4) == 0 {
			stalls.Add(1)
			select {
			case <-time.After(time.Duration(rand.Intn(3)) * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		handler.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// A small cache forces eviction churn alongside the hits.
	f := NewFetcherConfig(ts.URL, nil, FetcherConfig{
		MaxCacheBytes: 16 << 10, // ~32 chunks of 8x8 float64
	})

	goroutines := 16
	perG := 400
	if testing.Short() {
		goroutines = 8
		perG = 80
	}

	var wg sync.WaitGroup
	var fetched, cancelled atomic.Int64
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Zipfian popularity over row indices: a few hot rows, a
			// long cold tail, shuffled through the whole space.
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(space.Dim(0)-1))
			for i := 0; i < perG; i++ {
				ix := array.Index{int(zipf.Uint64()), rng.Intn(space.Dim(1))}
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(8) == 0 {
					// Mid-flight cancellation: a deadline short enough to
					// land inside a stalled request.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(2000))*time.Microsecond)
				}
				v, err := f.FetchContext(ctx, "data", ix)
				cancel()
				if err != nil {
					if errors.Is(err, context.DeadlineExceeded) ||
						errors.Is(err, context.Canceled) ||
						errors.Is(err, sdf.ErrDataMissing) {
						cancelled.Add(1)
						continue
					}
					select {
					case errCh <- err:
					default:
					}
					return
				}
				if want := originValue(space, ix); v != want {
					select {
					case errCh <- fmt.Errorf("corrupt value at %v: got %v want %v", ix, v, want):
					default:
					}
					return
				}
				fetched.Add(1)
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if fetched.Load() == 0 {
		t.Fatal("soak completed zero successful fetches")
	}
	t.Logf("soak: %d ok, %d cancelled/missing, %d stalled responses, stats: %v",
		fetched.Load(), cancelled.Load(), stalls.Load(), f.Stats())
}
