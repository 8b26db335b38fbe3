package debloat

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/dataserve"
	"repro/internal/sdf"
)

// localFetcher returns a fetcher over the origin file, closed when the
// test ends.
func localFetcher(t *testing.T, origin string) *dataserve.Fetcher {
	t.Helper()
	f, err := dataserve.NewLocalFetcher(origin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// ctxFetcher records the context each FetchContext call received.
type ctxFetcher struct {
	inner *dataserve.Fetcher
	mu    sync.Mutex
	ctxs  []context.Context
}

func (c *ctxFetcher) FetchContext(ctx context.Context, dataset string, ix array.Index) (float64, error) {
	c.mu.Lock()
	c.ctxs = append(c.ctxs, ctx)
	c.mu.Unlock()
	return c.inner.FetchContext(ctx, dataset, ix)
}

func debloatedDataset(t *testing.T) (ds *sdf.Dataset, origin string, space array.Space, cleanup func()) {
	t.Helper()
	dir := t.TempDir()
	origin, space = buildOriginal(t, dir)
	approx := approxLowerTriangle(space)
	dst := filepath.Join(dir, "debloated.sdf")
	if _, err := WriteSubset(origin, dst, "data", approx, []int{8, 8}); err != nil {
		t.Fatal(err)
	}
	f, err := sdf.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	ds, err = f.Dataset("data")
	if err != nil {
		t.Fatal(err)
	}
	return ds, origin, space, func() { f.Close() }
}

func TestRuntimeRecoveredCounter(t *testing.T) {
	ds, origin, _, cleanup := debloatedDataset(t)
	defer cleanup()
	rt := NewRuntime(ds, localFetcher(t, origin))

	// Present element: no miss, no recovery.
	if _, err := rt.ReadElement(array.NewIndex(10, 5)); err != nil {
		t.Fatal(err)
	}
	if rt.Misses() != 0 || rt.Recovered() != 0 {
		t.Errorf("present read counted: misses=%d recovered=%d", rt.Misses(), rt.Recovered())
	}
	// Carved element: one miss, one recovery.
	if _, err := rt.ReadElement(array.NewIndex(0, 63)); err != nil {
		t.Fatal(err)
	}
	if rt.Misses() != 1 || rt.Recovered() != 1 {
		t.Errorf("misses=%d recovered=%d, want 1/1", rt.Misses(), rt.Recovered())
	}
}

func TestRuntimeContextReachesFetcher(t *testing.T) {
	ds, origin, space, cleanup := debloatedDataset(t)
	defer cleanup()

	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "marker")
	cf := &ctxFetcher{inner: localFetcher(t, origin)}
	rt := NewRuntimeContext(ctx, ds, cf)

	v, err := rt.ReadElement(array.NewIndex(0, 63))
	if err != nil {
		t.Fatal(err)
	}
	lin, _ := space.Linear(array.NewIndex(0, 63))
	if v != float64(lin) {
		t.Errorf("recovered %v, want %v", v, float64(lin))
	}
	if len(cf.ctxs) != 1 {
		t.Fatalf("FetchContext called %d times, want 1", len(cf.ctxs))
	}
	if cf.ctxs[0].Value(key{}) != "marker" {
		t.Error("runtime did not pass its bound context to the fetcher")
	}
}

func TestRuntimeCanceledContextAbortsRecovery(t *testing.T) {
	ds, origin, _, cleanup := debloatedDataset(t)
	defer cleanup()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt := NewRuntimeContext(ctx, ds, localFetcher(t, origin))

	// Present data still reads locally.
	if _, err := rt.ReadElement(array.NewIndex(10, 5)); err != nil {
		t.Errorf("local read failed under canceled context: %v", err)
	}
	// Recovery must observe the cancellation.
	_, err := rt.ReadElement(array.NewIndex(0, 63))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("recovery error = %v, want context.Canceled", err)
	}
	if rt.Recovered() != 0 {
		t.Errorf("Recovered = %d after failed recovery, want 0", rt.Recovered())
	}
}

// TestOriginFetcherConcurrent drives the fetcher over a local origin
// file from many goroutines at once; under -race this checks the
// geometry and chunk single flights, the cache and the in-process
// server.
func TestOriginFetcherConcurrent(t *testing.T) {
	ds, origin, space, cleanup := debloatedDataset(t)
	defer cleanup()
	rt := NewRuntime(ds, localFetcher(t, origin))

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Column past the diagonal: carved for low rows.
				ix := array.NewIndex(g%4, 60+(i%4))
				v, err := rt.ReadElement(ix)
				if err != nil {
					errCh <- err
					return
				}
				lin, _ := space.Linear(ix)
				if v != float64(lin) {
					errCh <- errors.New("wrong recovered value")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if rt.Misses() != 400 || rt.Recovered() != 400 {
		t.Errorf("misses=%d recovered=%d, want 400/400", rt.Misses(), rt.Recovered())
	}
}

// TestOriginFetcherClosedErrors checks that a closed fetcher fails at
// once, before any trip to the origin, and not as missing data: the
// caller shut recovery down.
func TestOriginFetcherClosedErrors(t *testing.T) {
	ds, origin, _, cleanup := debloatedDataset(t)
	defer cleanup()
	fetcher := localFetcher(t, origin)
	rt := NewRuntime(ds, fetcher)
	// Warm the cache: a closed fetcher must refuse hits too.
	if _, err := rt.ReadElement(array.NewIndex(0, 63)); err != nil {
		t.Fatal(err)
	}
	if err := fetcher.Close(); err != nil {
		t.Fatal(err)
	}
	trips := fetcher.Stats().RoundTrips
	for _, ix := range []array.Index{array.NewIndex(0, 63), array.NewIndex(0, 62), array.NewIndex(0, 9)} {
		_, err := rt.ReadElement(ix)
		if err == nil {
			t.Fatalf("closed fetcher recovered %v", ix)
		}
		if errors.Is(err, ErrDataMissing) {
			t.Errorf("closed fetcher reported %v as missing data: %v", ix, err)
		}
	}
	if got := fetcher.Stats().RoundTrips; got != trips {
		t.Errorf("closed fetcher made %d round trips", got-trips)
	}
	if err := fetcher.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
