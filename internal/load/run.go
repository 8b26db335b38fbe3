package load

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataserve"
)

// Result is one load run's measurement: counts, exact-sample latency
// quantiles and cache behaviour over the run.
type Result struct {
	Mode       string  `json:"mode"`
	Popularity string  `json:"popularity"`
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	Shed       int64   `json:"shed,omitempty"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"throughput_rps"`
	P50        float64 `json:"p50_seconds"`
	P95        float64 `json:"p95_seconds"`
	P99        float64 `json:"p99_seconds"`
	P999       float64 `json:"p999_seconds"`
	MaxLatency float64 `json:"max_seconds"`
	HitRate    float64 `json:"cache_hit_rate"`
	// Fetch is the client-side cache/retry accounting over the run.
	Fetch dataserve.FetchStats `json:"fetch"`
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %d req (%d err, %d shed) in %.2fs = %.0f rps; p50 %.3gms p95 %.3gms p99 %.3gms; cache %.1f%% hit",
		r.Mode, r.Popularity, r.Requests, r.Errors, r.Shed, r.Seconds, r.Throughput,
		r.P50*1e3, r.P95*1e3, r.P99*1e3, 100*r.HitRate)
}

// sampler accumulates per-request latencies for exact quantiles. The
// generator's request counts are bench-gated, so quantiles come from
// every sample rather than a histogram approximation.
type sampler struct {
	mu      sync.Mutex
	samples []float64
}

func (s *sampler) add(d time.Duration) {
	s.mu.Lock()
	s.samples = append(s.samples, d.Seconds())
	s.mu.Unlock()
}

// quantiles returns exact (nearest-rank interpolated) quantiles and
// the maximum. Call once, after the run.
func (s *sampler) quantiles(qs ...float64) ([]float64, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(qs))
	if len(s.samples) == 0 {
		return out, 0
	}
	sort.Float64s(s.samples)
	for i, q := range qs {
		pos := q * float64(len(s.samples)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		out[i] = s.samples[lo]*(1-frac) + s.samples[hi]*frac
	}
	return out, s.samples[len(s.samples)-1]
}

// runner carries one Run's shared state.
type runner struct {
	cfg     Config
	fetcher *dataserve.Fetcher
	geom    geometry
	inst    *instruments
	samples *sampler

	requests atomic.Int64
	errors   atomic.Int64
	shed     atomic.Int64
	inflight atomic.Int64
}

// Run executes the configured load against the origin, returning the
// measurement. It respects ctx: cancelling it ends the run with ctx's
// error and no result. When ctx carries an obs.Trace, every request's
// fetch spans and trace-context stamps record into it.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg:     cfg,
		fetcher: dataserve.NewFetcherConfig(cfg.BaseURL, nil, dataserve.FetcherConfig{}),
		inst:    newInstruments(cfg.Registry),
		samples: &sampler{},
	}
	if cfg.Verify != nil {
		if err := r.fetcher.SetVerify(cfg.Dataset, *cfg.Verify); err != nil {
			return nil, fmt.Errorf("load: arming verification: %w", err)
		}
	}
	if r.geom, err = fetchGeometry(ctx, r.fetcher, cfg.Dataset); err != nil {
		return nil, err
	}
	if cfg.Registry != nil {
		r.fetcher.Register(cfg.Registry)
	}
	if cfg.OnFetcher != nil {
		cfg.OnFetcher(r.fetcher)
	}
	// The geometry lookup's round trip stays out of the run's accounting.
	statsBase := r.fetcher.Stats()
	start := time.Now()
	if cfg.Mode == Open {
		err = r.runOpen(ctx)
	} else {
		err = r.runClosed(ctx)
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	qs, maxLat := r.samples.quantiles(0.50, 0.95, 0.99, 0.999)
	stats := r.fetcher.Stats()
	window := dataserve.FetchStats{
		Elements:     stats.Elements - statsBase.Elements,
		RoundTrips:   stats.RoundTrips - statsBase.RoundTrips,
		Retries:      stats.Retries - statsBase.Retries,
		CacheHits:    stats.CacheHits - statsBase.CacheHits,
		CacheMisses:  stats.CacheMisses - statsBase.CacheMisses,
		FlightShared: stats.FlightShared - statsBase.FlightShared,
		CacheEntries: stats.CacheEntries,
		CacheBytes:   stats.CacheBytes,
		VerifyOK:     stats.VerifyOK - statsBase.VerifyOK,
		VerifyFailed: stats.VerifyFailed - statsBase.VerifyFailed,
	}
	res := &Result{
		Mode:       string(cfg.Mode),
		Popularity: string(cfg.Popularity),
		Requests:   r.requests.Load(),
		Errors:     r.errors.Load(),
		Shed:       r.shed.Load(),
		Seconds:    elapsed.Seconds(),
		P50:        qs[0],
		P95:        qs[1],
		P99:        qs[2],
		P999:       qs[3],
		MaxLatency: maxLat,
		HitRate:    window.HitRate(),
		Fetch:      window,
	}
	if res.Seconds > 0 {
		res.Throughput = float64(res.Requests) / res.Seconds
	}
	return res, nil
}

// issue performs one measured request.
func (r *runner) issue(ctx context.Context, p *picker) {
	ix := p.next()
	r.inflight.Add(1)
	if r.inst != nil {
		r.inst.inflight.Set(float64(r.inflight.Load()))
	}
	t0 := time.Now()
	_, err := r.fetcher.FetchContext(ctx, r.cfg.Dataset, ix)
	d := time.Since(t0)
	r.inflight.Add(-1)
	r.requests.Add(1)
	r.samples.add(d)
	if r.inst != nil {
		r.inst.requests.Inc()
		r.inst.latency.Observe(d.Seconds())
		r.inst.inflight.Set(float64(r.inflight.Load()))
	}
	if err != nil && ctx.Err() == nil {
		r.errors.Add(1)
		if r.inst != nil {
			r.inst.errors.Inc()
		}
	}
}

// runClosed runs a fixed worker pool; each worker fires its next
// request as soon as the previous one returns, until the run's request
// count (or duration, or ctx) is exhausted. With a request count and
// no errors the completed-request total is deterministic.
func (r *runner) runClosed(ctx context.Context) error {
	rctx := ctx
	if r.cfg.Duration > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, r.cfg.Duration)
		defer cancel()
	}
	var remaining atomic.Int64
	if r.cfg.Requests > 0 {
		remaining.Store(int64(r.cfg.Requests))
	} else {
		remaining.Store(math.MaxInt64)
	}
	var wg sync.WaitGroup
	for w := 0; w < r.cfg.Concurrency; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			p := newPicker(r.geom, r.cfg.Popularity, seed)
			for rctx.Err() == nil && remaining.Add(-1) >= 0 {
				r.issue(rctx, p)
			}
		}(r.cfg.Seed + int64(w)*7919)
	}
	wg.Wait()
	// The parent dying is an error; the duration timer firing is not.
	return ctx.Err()
}

// runOpen paces arrivals at the configured rate regardless of
// completions. Arrivals past the in-flight cap are shed and counted —
// back-pressure must be visible, not silently absorbed into the
// arrival schedule.
func (r *runner) runOpen(ctx context.Context) error {
	rate, conc := r.cfg.Rate, r.cfg.Concurrency
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	total := r.cfg.Requests
	if total <= 0 {
		total = int(rate*r.cfg.Duration.Seconds() + 0.5)
	}
	deadline := time.Time{}
	if r.cfg.Duration > 0 {
		deadline = time.Now().Add(r.cfg.Duration)
	}

	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	// One picker per in-flight slot, so concurrent requests never share
	// an rng; the dispatcher hands out slot-bound pickers.
	pickers := make(chan *picker, conc)
	for i := 0; i < conc; i++ {
		pickers <- newPicker(r.geom, r.cfg.Popularity, r.cfg.Seed+int64(i)*104729)
	}

	startAt := time.Now()
	for i := 0; total <= 0 || i < total; i++ {
		if ctx.Err() != nil {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		// Open-loop pacing: arrival i fires at start + i*interval. If
		// the generator falls behind it catches up by firing
		// immediately (no sleep), preserving the offered rate.
		next := startAt.Add(time.Duration(i) * interval)
		if wait := time.Until(next); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		select {
		case sem <- struct{}{}:
			p := <-pickers
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.issue(ctx, p)
				pickers <- p
				<-sem
			}()
		default:
			// In-flight cap reached: shed the arrival.
			r.shed.Add(1)
			if r.inst != nil {
				r.inst.shed.Inc()
			}
		}
	}
	wg.Wait()
	return ctx.Err()
}
