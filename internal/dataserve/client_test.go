package dataserve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/debloat"
	"repro/internal/sdf"
	"repro/internal/workload"
)

// fastRetry keeps retry-path tests quick.
var fastRetry = FetcherConfig{
	RequestTimeout: 200 * time.Millisecond,
	FetchTimeout:   time.Second,
	MaxAttempts:    3,
	RetryBase:      5 * time.Millisecond,
}

func TestFetcherValuesAndCache(t *testing.T) {
	space := array.MustSpace(32, 32)
	srv, ts := startServer(t, space, []int{8, 8})
	f := NewFetcherConfig(ts.URL, nil, FetcherConfig{})

	// Read every element of chunk (1,2): rows 8..15, cols 16..23.
	for r := 8; r < 16; r++ {
		for c := 16; c < 24; c++ {
			ix := array.NewIndex(r, c)
			v, err := f.FetchContext(context.Background(), "data", ix)
			if err != nil {
				t.Fatal(err)
			}
			if want := originValue(space, ix); v != want {
				t.Fatalf("Fetch(%v) = %v, want %v", ix, v, want)
			}
		}
	}
	st := f.Stats()
	// One meta round trip plus one chunk round trip serve all 64 reads.
	if st.RoundTrips != 2 {
		t.Errorf("round trips = %d, want 2", st.RoundTrips)
	}
	if st.Elements != 64 || st.CacheMisses != 1 || st.CacheHits != 63 {
		t.Errorf("stats = %+v", st)
	}
	if hr := st.HitRate(); hr < 0.98 {
		t.Errorf("hit rate = %v", hr)
	}
	// The server saw exactly one chunk request.
	if got := chunkRequests(srv); got != 1 {
		t.Errorf("server chunk requests = %d, want 1", got)
	}
}

func TestFetcherSingleflight(t *testing.T) {
	space := array.MustSpace(16, 16)
	srv, err := NewServer(writeOriginFile(t, space, []int{8, 8}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Delay chunk responses so concurrent misses pile onto one flight.
	var chunkReqs atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/chunk" {
			chunkReqs.Add(1)
			time.Sleep(50 * time.Millisecond)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	f := NewFetcherConfig(ts.URL, nil, FetcherConfig{})
	// Warm the meta so the measured round trips are chunk-only.
	if _, err := f.FetchContext(context.Background(), "data", array.NewIndex(15, 15)); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix := array.NewIndex(i%8, i%8) // all inside chunk (0,0)
			v, err := f.FetchContext(context.Background(), "data", ix)
			if err == nil && v != originValue(space, ix) {
				err = errors.New("wrong value")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := chunkReqs.Load(); got != 2 { // warm-up chunk + one shared flight
		t.Errorf("server chunk requests = %d, want 2", got)
	}
	if f.Stats().FlightShared == 0 {
		t.Error("no fetches were deduplicated in flight")
	}
}

func TestFetcherRetriesFlakyServer(t *testing.T) {
	space := array.MustSpace(8, 8)
	srv, err := NewServer(writeOriginFile(t, space, []int{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var calls atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/chunk" && calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	f := NewFetcherConfig(ts.URL, nil, fastRetry)
	v, err := f.FetchContext(context.Background(), "data", array.NewIndex(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if want := originValue(space, array.NewIndex(3, 3)); v != want {
		t.Errorf("value = %v, want %v", v, want)
	}
	if st := f.Stats(); st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
}

func TestFetcherDeadServerFailsFast(t *testing.T) {
	space := array.MustSpace(8, 8)
	_, ts := startServer(t, space, []int{4, 4})
	url := ts.URL
	ts.Close() // kill the server before any fetch

	f := NewFetcherConfig(url, nil, fastRetry)
	start := time.Now()
	_, err := f.FetchContext(context.Background(), "data", array.NewIndex(0, 0))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch against dead server succeeded")
	}
	if !errors.Is(err, sdf.ErrDataMissing) {
		t.Errorf("error %v does not classify as ErrDataMissing", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("fetch took %v, want well under FetchTimeout slack", elapsed)
	}
}

func TestFetcherHungServerHonorsTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block // hang every request
	}))
	defer ts.Close()
	defer close(block) // unblock handlers before ts.Close waits on them

	f := NewFetcherConfig(ts.URL, nil, FetcherConfig{
		RequestTimeout: 100 * time.Millisecond,
		FetchTimeout:   400 * time.Millisecond,
		MaxAttempts:    10,
		RetryBase:      10 * time.Millisecond,
	})
	start := time.Now()
	_, err := f.FetchContext(context.Background(), "data", array.NewIndex(0, 0))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch against hung server succeeded")
	}
	if !errors.Is(err, sdf.ErrDataMissing) {
		t.Errorf("error %v does not classify as ErrDataMissing", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("fetch took %v, want ~FetchTimeout (400ms)", elapsed)
	}
}

func TestFetcherCancellationMidFetch(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer ts.Close()
	defer close(block)

	f := NewFetcherConfig(ts.URL, nil, FetcherConfig{}) // default (long) timeouts: cancellation must cut through
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := f.FetchContext(ctx, "data", array.NewIndex(0, 0))
	if err == nil {
		t.Fatal("canceled fetch succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not classify as context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("canceled fetch took %v", elapsed)
	}
}

func TestFetcherRejectsCorruptFrames(t *testing.T) {
	space := array.MustSpace(8, 8)
	srv, err := NewServer(writeOriginFile(t, space, []int{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	// frame renders chunk (0,0)'s answer carrying n values; the chunk
	// holds 16.
	frame := func(n int) []byte {
		buf, err := encodeChunkFrame(chunkFrame{Dataset: "data", Chunk: []int{0, 0}, Leaf: 0, Leaves: 4, Vals: make([]float64, n)})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	good := frame(16)
	badMagic := append([]byte("JUNK"), good[4:]...)
	corrupt := append([]byte(nil), good...)
	corrupt[frameHeaderSize+3] ^= 0xFF
	cases := []struct {
		name string
		body []byte
	}{
		{"truncated", good[:len(good)-4]},
		{"bad magic", badMagic},
		{"wrong count", frame(2)},
		{"corrupt payload", corrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/chunk" {
					w.Write(c.body)
					return
				}
				h.ServeHTTP(w, r)
			}))
			defer ts.Close()
			f := NewFetcherConfig(ts.URL, nil, fastRetry)
			if _, err := f.FetchContext(context.Background(), "data", array.NewIndex(0, 0)); err == nil {
				t.Error("corrupt frame accepted")
			}
		})
	}
}

func TestFetcherClientSideErrors(t *testing.T) {
	space := array.MustSpace(8, 8)
	_, ts := startServer(t, space, []int{4, 4})
	f := NewFetcherConfig(ts.URL, nil, fastRetry)

	if _, err := f.FetchContext(context.Background(), "nope", array.NewIndex(0, 0)); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown dataset err = %v, want 404", err)
	}
	if _, err := f.FetchContext(context.Background(), "data", array.NewIndex(0, 0)); err != nil {
		t.Fatal(err)
	}
	before := f.Stats().RoundTrips
	if _, err := f.FetchContext(context.Background(), "data", array.NewIndex(-1, 0)); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := f.FetchContext(context.Background(), "data", array.NewIndex(99, 99)); err == nil {
		t.Error("out-of-bounds index accepted")
	}
	if _, err := f.FetchContext(context.Background(), "data", array.NewIndex(1)); err == nil {
		t.Error("rank-mismatched index accepted")
	}
	// Index validation is client-side: no extra round trips burned.
	if got := f.Stats().RoundTrips; got != before {
		t.Errorf("invalid indices cost %d round trips", got-before)
	}
}

func TestFetcherLRUEviction(t *testing.T) {
	space := array.MustSpace(32, 32)
	_, ts := startServer(t, space, []int{8, 8})
	// Budget for roughly two 64-value chunks (64*8 payload + overhead).
	f := NewFetcherConfig(ts.URL, nil, FetcherConfig{MaxCacheBytes: 1300})

	// Touch all 16 chunks, then re-touch the first: it must have been
	// evicted and refetched.
	for r := 0; r < 32; r += 8 {
		for c := 0; c < 32; c += 8 {
			ix := array.NewIndex(r, c)
			v, err := f.FetchContext(context.Background(), "data", ix)
			if err != nil {
				t.Fatal(err)
			}
			if want := originValue(space, ix); v != want {
				t.Fatalf("Fetch(%v) = %v, want %v", ix, v, want)
			}
		}
	}
	st := f.Stats()
	if st.CacheEntries > 2 {
		t.Errorf("cache entries = %d, want <= 2", st.CacheEntries)
	}
	if st.CacheBytes > 1300 {
		t.Errorf("cache bytes = %d over bound", st.CacheBytes)
	}
	trips := st.RoundTrips
	if _, err := f.FetchContext(context.Background(), "data", array.NewIndex(0, 0)); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().RoundTrips; got != trips+1 {
		t.Errorf("evicted chunk refetch cost %d round trips, want 1", got-trips)
	}
}

func TestChunkCacheUnit(t *testing.T) {
	c := newChunkCache(entryBytes(make([]float64, 4)) * 2)
	c.put(chunkKey{dataset: "a"}, []float64{1, 2, 3, 4})
	c.put(chunkKey{dataset: "b"}, []float64{5, 6, 7, 8})
	if _, ok := c.get(chunkKey{dataset: "a"}); !ok {
		t.Fatal("a missing")
	}
	// a was just used; inserting c should evict b.
	c.put(chunkKey{dataset: "c"}, []float64{9, 10, 11, 12})
	if _, ok := c.get(chunkKey{dataset: "b"}); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.get(chunkKey{dataset: "a"}); !ok {
		t.Error("a evicted despite recent use")
	}
	// An entry larger than the whole cache is not stored.
	c.put(chunkKey{dataset: "huge"}, make([]float64, 1024))
	if _, ok := c.get(chunkKey{dataset: "huge"}); ok {
		t.Error("oversized entry cached")
	}
	if c.len() == 0 {
		t.Error("cache emptied by oversized insert")
	}
}

// TestRuntimeRecoversThroughCachedFetcher is the §VI path end-to-end
// through the new data plane: a debloated runtime recovers carved
// reads via the caching fetcher and matches the origin byte-for-byte.
func TestRuntimeRecoversThroughCachedFetcher(t *testing.T) {
	space := array.MustSpace(32, 32)
	origin := writeOriginFile(t, space, []int{8, 8})

	p := workload.MustCS(2, 32)
	truth, err := workload.GroundTruth(p)
	if err != nil {
		t.Fatal(err)
	}
	deb := filepath.Join(t.TempDir(), "deb.sdf")
	if _, err := debloat.WriteSubset(origin, deb, "data", truth, []int{8, 8}); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(origin)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	f, err := sdf.Open(deb)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("data")
	fetcher := NewFetcherConfig(ts.URL, nil, FetcherConfig{})
	rt := debloat.NewRuntimeContext(context.Background(), ds, fetcher)

	of, err := sdf.Open(origin)
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	ods, _ := of.Dataset("data")

	missing := array.NewIndex(31, 0)
	if truth.Contains(missing) {
		t.Fatal("test premise broken: index is in truth")
	}
	got, err := rt.ReadElement(missing)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ods.ReadElement(missing)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("recovered %v, want %v", got, want)
	}
	if rt.Misses() != 1 || rt.Recovered() != 1 {
		t.Errorf("misses=%d recovered=%d, want 1/1", rt.Misses(), rt.Recovered())
	}
}

// TestARDRecoveryRoundTripReduction is the acceptance scenario: on an
// ARD-geometry chunked origin, the cached chunk fetcher recovers the
// origin's values with >= 10x fewer HTTP round trips than the runtime
// has misses — the round trips a one-element-per-request protocol
// would make.
func TestARDRecoveryRoundTripReduction(t *testing.T) {
	ard, err := workload.NewARD(48, 64, 32, 4, 16, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	space := ard.Space()
	origin := writeOriginFile(t, space, []int{8, 8, 8})

	// Under-carve: keep only the first 8 time planes, so runs at later
	// times must recover remotely.
	keep := array.NewIndexSet(space)
	space.Each(func(ix array.Index) bool {
		if ix[2] < 8 {
			keep.Add(ix)
		}
		return true
	})
	deb := filepath.Join(t.TempDir(), "deb.sdf")
	if _, err := debloat.WriteSubset(origin, deb, "data", keep, []int{8, 8, 8}); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(origin)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	f, err := sdf.Open(deb)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, _ := f.Dataset("data")
	cached := NewFetcherConfig(ts.URL, nil, FetcherConfig{})
	rt := debloat.NewRuntimeContext(context.Background(), ds, cached)
	// height=16, width=8 at time plane 20: fully carved away.
	start, count := []int{0, 0, 20}, []int{16, 8, 1}
	vals, err := rt.ReadSlab(start, count)
	if err != nil {
		t.Fatal(err)
	}
	misses := rt.Misses()
	if misses == 0 {
		t.Fatal("run hit no carved data; premise broken")
	}

	of, err := sdf.Open(origin)
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	ods, _ := of.Dataset("data")
	want, err := ods.ReadHyperslab(sdf.Slab(start, count))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(want) {
		t.Fatalf("recovered %d values, origin holds %d", len(vals), len(want))
	}
	for i := range want {
		if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d differs: recovered %v, origin %v", i, vals[i], want[i])
		}
	}
	cachedTrips := cached.Stats().RoundTrips
	if cachedTrips*10 > misses {
		t.Errorf("cached fetcher used %d round trips for %d misses (< 10x reduction)", cachedTrips, misses)
	}
	t.Logf("misses: %d, cached round trips: %d (%.0fx), %s",
		misses, cachedTrips, float64(misses)/float64(cachedTrips), cached.Stats())
}

// TestFetcherConcurrentMixed drives many goroutines over overlapping
// chunks; run under -race this exercises the cache, flight group, and
// counter paths for data races.
func TestFetcherConcurrentMixed(t *testing.T) {
	space := array.MustSpace(64, 64)
	_, ts := startServer(t, space, []int{16, 16})
	f := NewFetcherConfig(ts.URL, nil, FetcherConfig{})

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix := array.NewIndex((g*7+i)%64, (g*13+i*3)%64)
				v, err := f.FetchContext(context.Background(), "data", ix)
				if err != nil {
					errCh <- err
					return
				}
				if want := originValue(space, ix); v != want {
					errCh <- errors.New("wrong value under concurrency")
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
	st := f.Stats()
	// 16 chunks total: every miss beyond the first 16 must hit cache
	// or an in-flight fetch.
	if st.RoundTrips > 17 { // 16 chunks + 1 meta
		t.Errorf("round trips = %d, want <= 17", st.RoundTrips)
	}
}

// TestDatasetNamesAreEscaped recovers from datasets whose names carry
// query-string metacharacters, verified and unverified: every name must
// reach the server intact, so each fetch returns its own dataset's
// values.
func TestDatasetNamesAreEscaped(t *testing.T) {
	names := []string{"t+1", "a&b", "p#q", "x y"}
	space := array.MustSpace(16, 16)
	path := filepath.Join(t.TempDir(), "origin.sdf")
	w := sdf.NewWriter(path)
	for k, name := range names {
		dw, err := w.CreateDataset(name, space, array.Float64, []int{8, 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := dw.Fill(func(ix array.Index) float64 { return originValue(space, ix) + float64(1000*k) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, verified := range []bool{false, true} {
		f := NewFetcherConfig(ts.URL, nil, fastRetry)
		for k, name := range names {
			if verified {
				if err := f.SetVerify(name, originSpec(t, path, name)); err != nil {
					t.Fatal(err)
				}
			}
			for _, ix := range []array.Index{array.NewIndex(0, 0), array.NewIndex(9, 14)} {
				v, err := f.FetchContext(context.Background(), name, ix)
				if err != nil {
					t.Fatalf("verified=%v Fetch(%q, %v): %v", verified, name, ix, err)
				}
				if want := originValue(space, ix) + float64(1000*k); v != want {
					t.Fatalf("verified=%v Fetch(%q, %v) = %v, want %v", verified, name, ix, v, want)
				}
			}
		}
		if st := f.Stats(); verified && st.VerifyOK != 2*int64(len(names)) {
			t.Fatalf("VerifyOK = %d, want %d", st.VerifyOK, 2*len(names))
		}
	}
}
