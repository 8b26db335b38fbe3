package dataserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/obs"
	"repro/internal/sdf"
)

// ErrVerifyFailed marks a response that was well-formed on the wire
// but failed integrity verification: a proof that does not connect to
// the manifest root, tampered chunk bytes, a swapped identity, an
// origin that answers a proof request without one, or a lying /meta.
// It is TERMINAL — never retried and never degraded to
// sdf.ErrDataMissing — because the origin is lying, not flaky:
// retrying a forged chunk yields the same forged chunk, and masking it
// as missing data would let a poisoned origin silently zero out a
// workload.
var ErrVerifyFailed = errors.New("dataserve: chunk verification failed")

// FetcherConfig tunes the client's chunk cache.
type FetcherConfig struct {
	// MaxCacheBytes bounds the chunk cache (default 64 MiB when zero
	// or negative).
	MaxCacheBytes int64
}

// defaultCacheBytes is the chunk-cache bound of a zero FetcherConfig.
const defaultCacheBytes = 64 << 20

// The fetcher's timeouts and retry schedule.
const (
	// requestTimeout bounds one HTTP attempt.
	requestTimeout = 2 * time.Second
	// fetchTimeout bounds each trip to the origin including its
	// retries: the geometry lookup on a dataset's first touch, and
	// each chunk miss. A dead origin fails within this deadline
	// instead of hanging the debloated runtime; a cache hit does no
	// I/O and is not timed.
	fetchTimeout = 10 * time.Second
	// maxAttempts is the total number of HTTP attempts per trip: one
	// try plus three retries.
	maxAttempts = 4
	// retryBase and retryMax shape the exponential backoff between
	// attempts.
	retryBase = 50 * time.Millisecond
	retryMax  = 2 * time.Second
)

// retryPolicy is the timeout and retry schedule one fetcher runs.
// Every fetcher starts with the constants above; in-package tests
// swap in a faster policy.
type retryPolicy struct {
	request, fetch time.Duration
	attempts       int
	base, max      time.Duration
}

var defaultRetry = retryPolicy{
	request:  requestTimeout,
	fetch:    fetchTimeout,
	attempts: maxAttempts,
	base:     retryBase,
	max:      retryMax,
}

// FetchStats is a snapshot of a Fetcher's counters.
type FetchStats struct {
	// Elements counts values served to callers; RoundTrips counts
	// HTTP responses received from the origin (including retried
	// attempts); Retries counts re-attempts after a failure.
	Elements, RoundTrips, Retries int64
	// CacheHits and CacheMisses count chunk-cache lookups;
	// FlightShared counts fetches that piggybacked on a concurrent
	// in-flight request for the same chunk.
	CacheHits, CacheMisses, FlightShared int64
	// CacheEntries and CacheBytes describe the cache's current state.
	CacheEntries int
	CacheBytes   int64
	// VerifyOK counts chunks that passed Merkle verification before
	// entering the cache (zero unless SetVerify armed the dataset);
	// VerifyFailed counts terminal rejections: failed proofs, lying
	// /meta answers, and — verified or not — frames that answer a
	// different chunk than the one requested.
	VerifyOK, VerifyFailed int64
}

// HitRate returns the chunk-cache hit fraction.
func (s FetchStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// String renders a one-line summary.
func (s FetchStats) String() string {
	return fmt.Sprintf("%d elements via %d round trips (%d retries): cache %.1f%% hit (%d entries, %d B), %d deduped in-flight",
		s.Elements, s.RoundTrips, s.Retries, 100*s.HitRate(), s.CacheEntries, s.CacheBytes, s.FlightShared)
}

// dsGeom is the client's resolved view of one dataset's geometry.
type dsGeom struct {
	space array.Space
	grid  *array.ChunkedLayout
	chunk []int
}

// Fetcher recovers carved-away elements from a dataserve origin,
// remote (NewFetcherConfig) or a local file (NewLocalFetcher). It
// implements debloat.Fetcher: one miss pulls the whole containing
// serving chunk over a single round trip, caches it in a byte-bounded
// LRU, and serves neighboring misses from memory. Concurrent misses on
// one chunk collapse onto a single HTTP request. It is safe for
// concurrent use.
type Fetcher struct {
	baseURL string
	http    *http.Client
	retry   retryPolicy
	local   *Server // the in-process origin of a local fetcher, else nil
	closed  atomic.Bool

	mu     sync.Mutex
	geoms  map[string]*dsGeom
	verify map[string]*sdf.MerkleSpec // armed datasets: trusted tree specs

	cache      *chunkCache
	flight     *flightGroup[chunkKey, []float64]
	geomFlight *flightGroup[string, *dsGeom] // collapses concurrent /meta misses per dataset

	// rng drives the retry backoff's full jitter; it is deliberately
	// per-fetcher (not the global source) so seeding elsewhere in the
	// process stays deterministic.
	rngMu sync.Mutex
	rng   *rand.Rand

	elements, roundTrips, retries   atomic.Int64
	cacheHits, cacheMisses, flShare atomic.Int64
	tracePropagated                 atomic.Int64
	verifyOK, verifyFailed          atomic.Int64
}

// NewFetcherConfig returns a fetcher against the origin's base URL
// (e.g. "http://127.0.0.1:8080"); a zero MaxCacheBytes takes its
// default. A nil httpClient gets a dedicated client whose per-request
// timeout is enforced through contexts.
func NewFetcherConfig(baseURL string, httpClient *http.Client, cfg FetcherConfig) *Fetcher {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	if cfg.MaxCacheBytes <= 0 {
		cfg.MaxCacheBytes = defaultCacheBytes
	}
	return &Fetcher{
		baseURL:    strings.TrimSuffix(baseURL, "/"),
		http:       httpClient,
		retry:      defaultRetry,
		geoms:      make(map[string]*dsGeom),
		verify:     make(map[string]*sdf.MerkleSpec),
		cache:      newChunkCache(cfg.MaxCacheBytes),
		flight:     newFlightGroup[chunkKey, []float64](),
		geomFlight: newFlightGroup[string, *dsGeom](),
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// NewLocalFetcher returns a fetcher over the origin file at
// originPath, with default configuration. It opens a Server on the
// file and answers the fetcher's requests by calling the server's
// handler in process, so a local miss takes the same chunk frame,
// identity checks, cache, single flight and (after SetVerify) Merkle
// proof as a remote one. Close releases the file.
func NewLocalFetcher(originPath string) (*Fetcher, error) {
	srv, err := NewServer(originPath)
	if err != nil {
		return nil, err
	}
	f := NewFetcherConfig("http://origin", &http.Client{Transport: inProcess{srv.Handler()}}, FetcherConfig{})
	f.local = srv
	return f, nil
}

// inProcess is an http.RoundTripper that serves every request from a
// handler in the same process.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// errFetcherClosed fails every fetch after Close. It deliberately does
// not wrap sdf.ErrDataMissing: the caller shut recovery down, the data
// is not missing.
var errFetcherClosed = errors.New("dataserve: fetcher closed")

// Close stops the fetcher: every later fetch fails at once with an
// error that is not sdf.ErrDataMissing. A local fetcher also closes
// its origin file. Closing twice is harmless.
func (f *Fetcher) Close() error {
	if f.closed.Swap(true) || f.local == nil {
		return nil
	}
	return f.local.Close()
}

// SetVerify arms Merkle verification for one dataset: every chunk miss
// is fetched with an inclusion proof and verified against spec's root
// before it enters the cache. The spec comes from a trusted debloat
// manifest (debloat.Manifest.MerkleSpec), never from the origin.
// Verification failure surfaces as the terminal ErrVerifyFailed.
func (f *Fetcher) SetVerify(dataset string, spec sdf.MerkleSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.verify[dataset] = &spec
	return nil
}

// verifySpec returns the armed spec for dataset, nil when unverified.
func (f *Fetcher) verifySpec(dataset string) *sdf.MerkleSpec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.verify[dataset]
}

// Stats returns a snapshot of the fetcher's counters.
func (f *Fetcher) Stats() FetchStats {
	return FetchStats{
		Elements:     f.elements.Load(),
		RoundTrips:   f.roundTrips.Load(),
		Retries:      f.retries.Load(),
		CacheHits:    f.cacheHits.Load(),
		CacheMisses:  f.cacheMisses.Load(),
		FlightShared: f.flShare.Load(),
		CacheEntries: f.cache.len(),
		CacheBytes:   f.cache.bytes(),
		VerifyOK:     f.verifyOK.Load(),
		VerifyFailed: f.verifyFailed.Load(),
	}
}

// Register mirrors the fetcher's counters and cache state into a
// metrics registry, read live at exposition time. Nil-safe.
func (f *Fetcher) Register(reg *obs.Registry) {
	reg.SetHelp("kondo_fetch_elements_total", "Recovered element values served to callers.")
	reg.CounterFunc("kondo_fetch_elements_total", f.elements.Load)
	reg.CounterFunc("kondo_fetch_round_trips_total", f.roundTrips.Load)
	reg.CounterFunc("kondo_fetch_retries_total", f.retries.Load)
	reg.CounterFunc("kondo_fetch_cache_hits_total", f.cacheHits.Load)
	reg.CounterFunc("kondo_fetch_cache_misses_total", f.cacheMisses.Load)
	reg.CounterFunc("kondo_fetch_flight_shared_total", f.flShare.Load)
	reg.SetHelp("kondo_fetch_trace_propagated_total", "Outgoing origin requests stamped with a propagated trace context.")
	reg.CounterFunc("kondo_fetch_trace_propagated_total", f.tracePropagated.Load)
	reg.SetHelp("kondo_fetch_cache_entries", "Chunks currently resident in the client cache.")
	reg.GaugeFunc("kondo_fetch_cache_entries", func() float64 { return float64(f.cache.len()) })
	reg.GaugeFunc("kondo_fetch_cache_bytes", func() float64 { return float64(f.cache.bytes()) })
	reg.SetHelp("kondo_verify_ok_total", "Chunks that passed Merkle verification before entering the cache.")
	reg.CounterFunc("kondo_verify_ok_total", f.verifyOK.Load)
	reg.SetHelp("kondo_verify_failed_total", "Chunks rejected by Merkle verification (terminal, never retried).")
	reg.CounterFunc("kondo_verify_failed_total", f.verifyFailed.Load)
}

// FetchContext implements debloat.Fetcher: it recovers one element
// under the caller's context. Each trip to the origin is additionally
// bounded by fetchTimeout; a cache hit makes none.
func (f *Fetcher) FetchContext(ctx context.Context, dataset string, ix array.Index) (float64, error) {
	g, err := f.geom(ctx, dataset)
	if err != nil {
		return 0, err
	}
	leaf, off, err := sdf.ChunkOffset(g.space, g.chunk, ix)
	if err != nil {
		return 0, fmt.Errorf("dataserve: fetch %v of %q: %w", ix, dataset, err)
	}
	// Cache hits never touch the wire, so they skip tracing entirely: a
	// span would cost more than the microsecond lookup it describes,
	// and there is no request to propagate a context onto. Tracing cost
	// therefore scales with origin round trips, not recovery calls.
	key := chunkKey{dataset, leaf}
	vals, hit := f.cachedChunk(key)
	if !hit {
		// Mint (or keep) the request's trace context before the fetch
		// span so the ids it stamps on the wire appear on the client
		// span too — the key a stitched multi-pid trace is joined on.
		var tc obs.TraceContext
		var traced bool
		ctx, tc, traced = obs.EnsureTraceContext(ctx)
		sp := obs.Start(ctx, "dataserve.fetch")
		if sp != nil && traced {
			sp.Arg("trace_id", tc.TraceID).Arg("span_id", tc.SpanID)
		}
		vals, hit, err = f.chunk(ctx, key, g)
		if sp != nil {
			sp.Arg("dataset", dataset).Arg("cache", cacheVerdict(hit))
		}
		sp.End()
		if err != nil {
			return 0, err
		}
	}
	if off >= len(vals) {
		return 0, fmt.Errorf("dataserve: chunk %d of %q: element %v outside %d-value frame",
			leaf, dataset, ix, len(vals))
	}
	f.elements.Add(1)
	return vals[off], nil
}

// Geometry returns a dataset's dims and serving chunk shape, of equal
// rank and positive extents, through the same cached, retried and
// fetchTimeout-bounded lookup the fetches use (and, after SetVerify,
// checked against the manifest).
func (f *Fetcher) Geometry(ctx context.Context, dataset string) (dims, chunk []int, err error) {
	g, err := f.geom(ctx, dataset)
	if err != nil {
		return nil, nil, err
	}
	return g.space.Dims(), append([]int(nil), g.chunk...), nil
}

// geom resolves (and caches) a dataset's serving geometry; it is where
// a closed fetcher stops every fetch. Concurrent first-touch misses
// for one dataset collapse onto a single /meta round trip, bounded by
// fetchTimeout, through the same singleflight machinery chunk fetches
// use; misses for different datasets proceed independently.
func (f *Fetcher) geom(ctx context.Context, dataset string) (*dsGeom, error) {
	if f.closed.Load() {
		return nil, errFetcherClosed
	}
	f.mu.Lock()
	g, ok := f.geoms[dataset]
	f.mu.Unlock()
	if ok {
		return g, nil
	}
	g, err, _ := f.geomFlight.do(dataset, func() (*dsGeom, error) {
		// Re-check under the flight: a previous holder may have
		// resolved the geometry while this caller queued.
		f.mu.Lock()
		g, ok := f.geoms[dataset]
		f.mu.Unlock()
		if ok {
			return g, nil
		}
		ctx, cancel := context.WithTimeout(ctx, f.retry.fetch)
		defer cancel()
		g, err := f.fetchGeom(ctx, dataset)
		if err != nil {
			return nil, err
		}
		f.mu.Lock()
		f.geoms[dataset] = g
		f.mu.Unlock()
		return g, nil
	})
	return g, err
}

// fetchGeom performs the /meta round trip and, when verification is
// armed, cross-checks the origin's advertised geometry against the
// manifest's pinned dims/chunk before any coordinate arithmetic
// trusts it — a lying /meta would shift every chunk coordinate, so
// the mismatch is a terminal verification failure, not a retry.
func (f *Fetcher) fetchGeom(ctx context.Context, dataset string) (*dsGeom, error) {
	data, err := f.jsonRequest(ctx, f.baseURL+"/meta?"+url.Values{"dataset": {dataset}}.Encode())
	if err != nil {
		return nil, fmt.Errorf("dataserve: meta of %q: %w", dataset, err)
	}
	var meta DatasetMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("dataserve: decoding meta of %q: %w", dataset, err)
	}
	if spec := f.verifySpec(dataset); spec != nil {
		if err := spec.MatchesGeometry(meta.Dims, meta.Chunk); err != nil {
			f.verifyFailed.Add(1)
			return nil, fmt.Errorf("%w: meta of %q: %v", ErrVerifyFailed, dataset, err)
		}
	}
	space, err := array.NewSpace(meta.Dims...)
	if err != nil {
		return nil, fmt.Errorf("dataserve: meta of %q: %w", dataset, err)
	}
	dt, err := array.ParseDType(meta.DType)
	if err != nil {
		return nil, fmt.Errorf("dataserve: meta of %q: %w", dataset, err)
	}
	grid, err := array.NewChunkedLayout(space, dt, meta.Chunk)
	if err != nil {
		return nil, fmt.Errorf("dataserve: meta of %q: %w", dataset, err)
	}
	return &dsGeom{space: space, grid: grid, chunk: meta.Chunk}, nil
}

func cacheVerdict(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// cachedChunk is the untraced fast path: one cache lookup, no wire.
func (f *Fetcher) cachedChunk(key chunkKey) ([]float64, bool) {
	vals, ok := f.cache.get(key)
	if ok {
		f.cacheHits.Add(1)
	}
	return vals, ok
}

// chunk returns the values of one serving chunk, from cache when
// possible (hit reports a cache hit), collapsing concurrent misses
// onto one request; fetchTimeout bounds that request's trip to the
// origin.
func (f *Fetcher) chunk(ctx context.Context, key chunkKey, g *dsGeom) (_ []float64, hit bool, _ error) {
	if vals, ok := f.cache.get(key); ok {
		f.cacheHits.Add(1)
		return vals, true, nil
	}
	f.cacheMisses.Add(1)
	vals, err, shared := f.flight.do(key, func() ([]float64, error) {
		// Re-check under the flight: a previous holder may have
		// populated the cache while this caller queued.
		if vals, ok := f.cache.get(key); ok {
			return vals, nil
		}
		ctx, cancel := context.WithTimeout(ctx, f.retry.fetch)
		defer cancel()
		vals, err := f.fetchChunk(ctx, key.dataset, g, key.chunk)
		if err != nil {
			return nil, err
		}
		// Only checked (and, when armed, verified) bytes enter the
		// cache: a hit must never have to re-verify.
		f.cache.put(key, vals)
		return vals, nil
	})
	if shared {
		f.flShare.Add(1)
	}
	return vals, false, err
}

// fetchChunk is the recovery plane's one request path: a retried GET
// of one serving chunk, decoded straight from the response body and
// checked against the fetcher's own geometry before its values are
// returned. Transport trouble and truncated or corrupt frames retry; a
// well-formed frame that answers a different request, or (when
// SetVerify armed the dataset) whose proof does not fold onto the
// manifest root, is a terminal ErrVerifyFailed. The verify.chunk span
// lives here — on the miss path only, so the hit path's cost stays
// zero.
func (f *Fetcher) fetchChunk(ctx context.Context, dataset string, g *dsGeom, leaf int64) ([]float64, error) {
	cc, err := g.grid.Grid().Unlinear(leaf)
	if err != nil {
		return nil, err
	}
	spec := f.verifySpec(dataset)
	q := url.Values{"dataset": {dataset}, "chunk": {joinInts(cc)}}
	if spec != nil {
		q.Set("proof", "1")
	}
	u := f.baseURL + "/chunk?" + q.Encode()
	var cf chunkFrame
	err = f.withRetries(ctx, func(actx context.Context) (retryable bool, err error) {
		resp, retryable, err := f.get(actx, u)
		if err != nil {
			return retryable, err
		}
		defer resp.Body.Close()
		// A truncated or corrupted body is worth retrying: the origin
		// itself is healthy, the transfer was not.
		cf, err = decodeChunkFrame(resp.Body)
		return true, err
	})
	if err != nil {
		return nil, fmt.Errorf("dataserve: chunk %v of %q: %w", cc, dataset, err)
	}
	var sp *obs.Span
	if spec != nil {
		sp = obs.Start(ctx, "verify.chunk")
	}
	err = checkFrame(spec, dataset, g, cc, leaf, cf)
	if sp != nil {
		sp.Arg("dataset", dataset).Arg("leaf", leaf).Arg("ok", err == nil)
	}
	sp.End()
	if err != nil {
		f.verifyFailed.Add(1)
		return nil, fmt.Errorf("%w: chunk %v of %q: %v", ErrVerifyFailed, cc, dataset, err)
	}
	if spec != nil {
		f.verifyOK.Add(1)
	}
	return cf.Vals, nil
}

// checkFrame holds a chunk frame to the request it answers. Every
// expected quantity — dataset, chunk, leaf index, leaf count, value
// count — comes from the fetcher's own geometry, never from the wire.
// With a non-nil spec the leaf hash of the received values must also
// fold through the proof onto the manifest root; an origin that drops
// proof=1 fails here too, because an empty proof folds only a
// one-leaf tree, and then only values that hash to the root itself.
func checkFrame(spec *sdf.MerkleSpec, dataset string, g *dsGeom, cc array.Index, leaf int64, cf chunkFrame) error {
	if cf.Dataset != dataset {
		return fmt.Errorf("response identifies dataset %q", cf.Dataset)
	}
	if !sameInts(cf.Chunk, cc) {
		return fmt.Errorf("response identifies chunk %v", cf.Chunk)
	}
	if cf.Leaf != leaf {
		return fmt.Errorf("response claims leaf %d, geometry says %d", cf.Leaf, leaf)
	}
	if leaves := g.grid.NumChunks(); cf.Leaves != leaves {
		return fmt.Errorf("response claims %d leaves, geometry says %d", cf.Leaves, leaves)
	}
	_, count := sdf.ChunkSlab(g.space, g.chunk, cc)
	want := int64(1)
	for _, c := range count {
		want *= int64(c)
	}
	if int64(len(cf.Vals)) != want {
		return fmt.Errorf("response carries %d values, geometry says %d", len(cf.Vals), want)
	}
	if spec != nil && !sdf.VerifyChunkProof(spec.Root, spec.Leaves, leaf, sdf.ChunkLeafHash(leaf, cf.Vals), cf.Proof) {
		return fmt.Errorf("inclusion proof does not connect to the manifest root")
	}
	return nil
}

// sameInts compares a coordinate against an index.
func sameInts(a []int, b array.Index) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// jsonRequest performs a retried GET expecting a JSON body.
func (f *Fetcher) jsonRequest(ctx context.Context, u string) ([]byte, error) {
	var out []byte
	err := f.withRetries(ctx, func(actx context.Context) (retryable bool, err error) {
		resp, retryable, err := f.get(actx, u)
		if err != nil {
			return retryable, err
		}
		defer resp.Body.Close()
		out, err = io.ReadAll(resp.Body)
		return true, err
	})
	return out, err
}

// get performs one GET attempt stamped with the fetch's trace context
// and returns the 200 response, or an error and whether it is worth
// retrying. Every response received counts as a round trip.
func (f *Fetcher) get(ctx context.Context, u string) (_ *http.Response, retryable bool, _ error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false, err
	}
	f.stampTraceContext(ctx, req)
	resp, err := f.http.Do(req)
	if err != nil {
		return nil, true, err
	}
	f.roundTrips.Add(1)
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, retryStatus(resp.StatusCode), statusError(resp)
	}
	return resp, true, nil
}

// stampTraceContext propagates the fetch's trace context onto an
// outgoing request as additive headers (old servers ignore them),
// letting the origin open child spans under the caller's trace.
func (f *Fetcher) stampTraceContext(ctx context.Context, req *http.Request) {
	if tc, ok := obs.TraceContextOf(ctx); ok {
		tc.Inject(req.Header)
		f.tracePropagated.Add(1)
	}
}

// withRetries runs attempt with per-attempt timeouts and exponential
// backoff until it succeeds, fails terminally, or the context (which
// carries the overall fetch deadline) dies. Exhausted retries against
// an unreachable origin degrade to the data-missing exception: the
// returned error wraps sdf.ErrDataMissing so runtimes classify it
// exactly like a carved-away access with no fetcher attached.
func (f *Fetcher) withRetries(ctx context.Context, attempt func(context.Context) (retryable bool, err error)) error {
	var lastErr error
	for try := 0; try < f.retry.attempts; try++ {
		if try > 0 {
			f.retries.Add(1)
			backoff := f.backoffDelay(try)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return fmt.Errorf("%w: origin unreachable: %w (last error: %v)",
					sdf.ErrDataMissing, ctx.Err(), lastErr)
			}
		}
		actx, cancel := context.WithTimeout(ctx, f.retry.request)
		retryable, err := attempt(actx)
		cancel()
		if err == nil {
			return nil
		}
		if !retryable {
			return err
		}
		lastErr = err
		if ctx.Err() != nil {
			return fmt.Errorf("%w: origin unreachable: %w (last error: %v)",
				sdf.ErrDataMissing, ctx.Err(), lastErr)
		}
	}
	return fmt.Errorf("%w: origin unreachable after %d attempts: %v",
		sdf.ErrDataMissing, f.retry.attempts, lastErr)
}

// backoffDelay returns the sleep before attempt try (1-based retry
// index): full jitter over a capped exponential ceiling, so a fleet of
// clients that all lost the same flapping origin spreads its retries
// instead of hammering it in lockstep (the thundering-herd fix — AWS
// architecture blog's "full jitter" variant, which has the best
// tail-collision behaviour of the standard options).
func (f *Fetcher) backoffDelay(try int) time.Duration {
	ceiling := f.retry.max
	// Compare by shifting the cap down rather than the base up: the
	// base shifted left can overflow for large try, the cap shifted
	// right cannot.
	if shift := uint(try - 1); shift < 63 && f.retry.base <= ceiling>>shift {
		ceiling = f.retry.base << shift
	}
	if ceiling <= 0 {
		return 0
	}
	f.rngMu.Lock()
	d := time.Duration(f.rng.Int63n(int64(ceiling) + 1))
	f.rngMu.Unlock()
	return d
}

// retryStatus reports whether an HTTP status is worth retrying:
// server-side trouble is, client-side protocol errors are not.
func retryStatus(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// statusError turns a non-200 response into an error carrying the
// server's JSON error message. A 410 Gone — the origin itself lacks
// the data — wraps sdf.ErrDataMissing.
func statusError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e)
	if resp.StatusCode == http.StatusGone {
		return fmt.Errorf("%w at origin (%s)", sdf.ErrDataMissing, e.Error)
	}
	return fmt.Errorf("server says %s (%s)", resp.Status, e.Error)
}
