package debloat

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
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
	rt := NewRuntimeContext(context.Background(), ds, localFetcher(t, origin))

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
	rt := NewRuntimeContext(context.Background(), ds, localFetcher(t, origin))

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
	rt := NewRuntimeContext(context.Background(), ds, fetcher)
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

// orderFetcher records the linear position of every element it is
// asked to recover.
type orderFetcher struct {
	inner Fetcher
	space array.Space
	lins  []int64
}

func (o *orderFetcher) FetchContext(ctx context.Context, dataset string, ix array.Index) (float64, error) {
	lin, _ := o.space.Linear(ix)
	o.lins = append(o.lins, lin)
	return o.inner.FetchContext(ctx, dataset, ix)
}

// TestReadSlabMatchesElementwise reads random slabs across kept and
// carved chunks in one pass and compares them with a ReadElement loop
// over the same slab: the same values or error, the same Misses and
// Recovered counts, and the same fetches in the same order, with a
// fetcher and without one.
func TestReadSlabMatchesElementwise(t *testing.T) {
	ds, origin, space, cleanup := debloatedDataset(t)
	defer cleanup()
	rng := rand.New(rand.NewSource(5))
	slabFetcher := &orderFetcher{inner: localFetcher(t, origin), space: space}
	elemFetcher := &orderFetcher{inner: localFetcher(t, origin), space: space}
	mixed := 0
	for _, withFetcher := range []bool{true, false} {
		for trial := 0; trial < 60; trial++ {
			start := []int{rng.Intn(64), rng.Intn(64)}
			count := []int{1 + rng.Intn(min(64-start[0], 20)), 1 + rng.Intn(64-start[1])}
			slabFetcher.lins, elemFetcher.lins = nil, nil
			var slabF, elemF Fetcher
			if withFetcher {
				slabF, elemF = slabFetcher, elemFetcher
			}
			ctx := context.Background()
			slabRT, elemRT := NewRuntimeContext(ctx, ds, slabF), NewRuntimeContext(ctx, ds, elemF)
			got, err := slabRT.ReadSlab(start, count)
			var want []float64
			var wantErr error
			sdf.Slab(start, count).Each(func(ix array.Index) bool {
				v, err := elemRT.ReadElement(ix.Clone())
				if err != nil {
					wantErr = err
					return false
				}
				want = append(want, v)
				return true
			})
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("slab %v+%v: error %v, element loop %v", start, count, err, wantErr)
			}
			if err == nil && !slices.Equal(got, want) {
				t.Fatalf("slab %v+%v: values %v, element loop %v", start, count, got, want)
			}
			if slabRT.Misses() != elemRT.Misses() || slabRT.Recovered() != elemRT.Recovered() {
				t.Fatalf("slab %v+%v: misses/recovered %d/%d, element loop %d/%d", start, count,
					slabRT.Misses(), slabRT.Recovered(), elemRT.Misses(), elemRT.Recovered())
			}
			if !slices.Equal(slabFetcher.lins, elemFetcher.lins) {
				t.Fatalf("slab %v+%v: fetched %v, element loop %v", start, count, slabFetcher.lins, elemFetcher.lins)
			}
			if withFetcher && elemRT.Misses() > 0 && int64(len(want)) > elemRT.Misses() {
				mixed++
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no slab crossed both kept and carved chunks")
	}
}

// TestReadElementMissAllocatesLittle bounds a recovered miss whose
// chunk the fetcher already caches to one allocation: the data-missing
// error, which formats its message only if printed.
func TestReadElementMissAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is skipped in -short (race) runs")
	}
	ds, origin, space, cleanup := debloatedDataset(t)
	defer cleanup()
	rt := NewRuntimeContext(context.Background(), ds, localFetcher(t, origin))
	ix := array.NewIndex(0, 63)
	if _, err := rt.ReadElement(ix); err != nil {
		t.Fatal(err)
	}
	var v float64
	var err error
	allocs := testing.AllocsPerRun(100, func() { v, err = rt.ReadElement(ix) })
	if lin, _ := space.Linear(ix); err != nil || v != float64(lin) {
		t.Fatalf("recovered %v, %v; want %v", v, err, float64(lin))
	}
	if allocs > 1 {
		t.Fatalf("a recovered miss allocates %.1f times, want at most 1", allocs)
	}
}
