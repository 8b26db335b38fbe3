// Package load is the heavy-traffic harness for the recovery plane:
// it drives a dataserve origin through the real caching Fetcher in
// open-loop (fixed arrival rate) or closed-loop (fixed concurrency)
// mode, with Zipfian or uniform chunk popularity (DESIGN.md §12).
package load

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/array"
	"repro/internal/dataserve"
	"repro/internal/obs"
	"repro/internal/sdf"
)

// Mode selects how offered load is generated.
type Mode string

const (
	// Open is open-loop generation: arrivals fire at a fixed rate
	// regardless of completions, the way independent users do. Requests
	// that would exceed the in-flight cap are shed (counted, not sent),
	// so a saturated server shows up as shed + tail latency rather than
	// silently throttling the generator (coordinated omission).
	Open Mode = "open"
	// Closed is closed-loop generation: a fixed worker pool where each
	// worker issues its next request as soon as the previous completes —
	// the classic saturation-throughput harness.
	Closed Mode = "closed"
)

// Popularity selects the chunk-popularity distribution.
type Popularity string

const (
	// Zipf skews accesses onto a few hot chunks (s = zipfS), the shape
	// real content traffic has; it exercises cache hits and
	// singleflight.
	Zipf Popularity = "zipf"
	// Uniform spreads accesses evenly — the cache-hostile worst case.
	Uniform Popularity = "uniform"
)

// zipfS is the Zipf skew of the Zipf popularity mix.
const zipfS = 1.2

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the dataserve origin (e.g. "http://127.0.0.1:8080").
	BaseURL string
	// Dataset names the dataset to hammer.
	Dataset string
	// Mode selects open- vs closed-loop generation (default Closed).
	Mode Mode
	// Popularity selects the chunk mix (default Zipf).
	Popularity Popularity

	// Rate is the open-loop arrival rate in requests/second.
	Rate float64
	// Concurrency is the worker count (closed) or in-flight cap (open);
	// default 8.
	Concurrency int
	// Requests bounds the run by count; Duration by time. At least one
	// must be set; whichever is hit first ends the run.
	Requests int
	Duration time.Duration

	// Seed makes the popularity sequence reproducible (0 seeds from the
	// clock).
	Seed int64

	// Verify, when set, arms Merkle verification on the client: every
	// chunk miss is fetched with an inclusion proof and checked against
	// this manifest-derived spec before entering the cache. A
	// verification failure is terminal per chunk (counted in
	// Result.Fetch.VerifyFailed) — the load keeps running so the blast
	// radius is measured, not hidden behind the first error.
	Verify *sdf.MerkleSpec

	// OnFetcher, when set, observes the run's fetcher right after
	// construction — the hook a daemon uses to expose live verify
	// counters on its own /statusz.
	OnFetcher func(*dataserve.Fetcher)

	// Registry, when set, receives kondo_load_* instruments.
	Registry *obs.Registry
}

func (c Config) withDefaults() (Config, error) {
	if c.BaseURL == "" {
		return c, errors.New("load: BaseURL required")
	}
	if c.Dataset == "" {
		c.Dataset = "data"
	}
	if c.Mode == "" {
		c.Mode = Closed
	}
	if c.Mode != Open && c.Mode != Closed {
		return c, fmt.Errorf("load: unknown mode %q", c.Mode)
	}
	if c.Popularity == "" {
		c.Popularity = Zipf
	}
	if c.Popularity != Zipf && c.Popularity != Uniform {
		return c, fmt.Errorf("load: unknown popularity %q", c.Popularity)
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	if c.Requests <= 0 && c.Duration <= 0 {
		return c, errors.New("load: unbounded run (set Requests or Duration)")
	}
	if c.Mode == Open && c.Rate <= 0 {
		return c, errors.New("load: open-loop mode needs a rate")
	}
	return c, nil
}

// instruments is the generator's own kondo_load_* metric set.
type instruments struct {
	requests *obs.Counter
	errors   *obs.Counter
	shed     *obs.Counter
	latency  *obs.Histogram
	inflight *obs.Gauge
}

func newInstruments(reg *obs.Registry) *instruments {
	if reg == nil {
		return nil
	}
	reg.SetHelp("kondo_load_requests_total", "Load-generator requests completed.")
	reg.SetHelp("kondo_load_errors_total", "Load-generator requests that failed.")
	reg.SetHelp("kondo_load_shed_total", "Open-loop arrivals shed because the in-flight cap was reached.")
	reg.SetHelp("kondo_load_request_seconds", "Load-generator request latency.")
	reg.SetHelp("kondo_load_inflight", "Requests currently in flight.")
	bounds := make([]float64, 0, 12)
	for _, d := range []time.Duration{
		100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 500 * time.Millisecond, time.Second,
	} {
		bounds = append(bounds, d.Seconds())
	}
	return &instruments{
		requests: reg.Counter("kondo_load_requests_total"),
		errors:   reg.Counter("kondo_load_errors_total"),
		shed:     reg.Counter("kondo_load_shed_total"),
		latency:  reg.Histogram("kondo_load_request_seconds", bounds),
		inflight: reg.Gauge("kondo_load_inflight"),
	}
}

// geometry is the generator's resolved view of the target dataset:
// enough to enumerate serving chunks and pick one element per chunk.
type geometry struct {
	dims, chunk []int
	grid        []int // chunks per axis
	chunks      int64 // total chunk count
}

// fetchGeometry takes the dataset's dims and serving chunk shape from
// the fetcher's own geometry lookup (cached, retried, bounded by the
// fetcher's per-trip timeout, and checked against the manifest once verification is
// armed) and lays out the chunk grid.
func fetchGeometry(ctx context.Context, f *dataserve.Fetcher, dataset string) (geometry, error) {
	dims, chunk, err := f.Geometry(ctx, dataset)
	if err != nil {
		return geometry{}, fmt.Errorf("load: resolving %q geometry: %w", dataset, err)
	}
	g := geometry{dims: dims, chunk: chunk, grid: make([]int, len(dims)), chunks: 1}
	for k, d := range dims {
		g.grid[k] = (d + chunk[k] - 1) / chunk[k]
		g.chunks *= int64(g.grid[k])
	}
	return g, nil
}

// picker chooses the next element index under one goroutine's rng (not
// safe for concurrent use; each worker owns one).
type picker struct {
	g    geometry
	rng  *rand.Rand
	zipf *rand.Zipf // nil for uniform
	perm []int      // shuffled chunk ranks, so the Zipf-hot chunks are scattered
}

func newPicker(g geometry, pop Popularity, seed int64) *picker {
	rng := rand.New(rand.NewSource(seed))
	p := &picker{g: g, rng: rng}
	if pop == Zipf && g.chunks > 1 {
		p.zipf = rand.NewZipf(rng, zipfS, 1, uint64(g.chunks-1))
		// Scatter the popularity ranks across the chunk grid so "hot"
		// does not mean "first rows of the array" (skipped for huge
		// grids, where rank order is as good a scatter as any).
		if g.chunks <= 1<<20 {
			p.perm = rng.Perm(int(g.chunks))
		}
	}
	return p
}

// next returns the element index of the next request: a chunk drawn
// from the popularity distribution, then a uniform element within it.
func (p *picker) next() array.Index {
	var lin int64
	if p.zipf != nil {
		lin = int64(p.zipf.Uint64())
		if p.perm != nil {
			lin = int64(p.perm[lin])
		}
	} else if p.g.chunks > 1 {
		lin = p.rng.Int63n(p.g.chunks)
	}
	ix := make(array.Index, len(p.g.dims))
	for k := len(p.g.grid) - 1; k >= 0; k-- {
		cc := int(lin % int64(p.g.grid[k]))
		lin /= int64(p.g.grid[k])
		lo := cc * p.g.chunk[k]
		hi := lo + p.g.chunk[k]
		if hi > p.g.dims[k] {
			hi = p.g.dims[k]
		}
		ix[k] = lo + p.rng.Intn(hi-lo)
	}
	return ix
}
