package debloat

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/obs"
	"repro/internal/sdf"
)

// ErrDataMissing is re-exported so runtime users don't need to import
// the format layer to classify the exception.
var ErrDataMissing = sdf.ErrDataMissing

// Fetcher recovers element values that were carved away. It models the
// remote-server recovery path of paper §VI: "a container runtime can
// use audited information to pull missing data offsets from a remote
// server, when requested." dataserve.Fetcher implements it, over a
// remote origin or a local file.
type Fetcher interface {
	// FetchContext returns the value of one missing element. A canceled
	// ctx stops the recovery instead of hanging the debloated runtime.
	// ix is valid only during the call: a slab read reuses it.
	FetchContext(ctx context.Context, dataset string, ix array.Index) (float64, error)
}

// Runtime serves a program's reads from a debloated file. Reads of
// carved-away data raise the data-missing exception, or are recovered
// through the fetcher when one is attached. Misses are counted either
// way, giving the §V-D1 missed-access telemetry. A Runtime is safe
// for concurrent use when its fetcher is.
type Runtime struct {
	ds      *sdf.Dataset
	fetcher Fetcher
	name    string
	ctx     context.Context

	misses    atomic.Int64
	recovered atomic.Int64

	// Registry instruments resolved once at construction; nil (a no-op)
	// when the context carries no registry.
	mMisses    *obs.Counter
	mRecovered *obs.Counter
}

// NewRuntimeContext returns a runtime over one dataset of an opened
// debloated file. fetcher may be nil, in which case misses are fatal.
// Recoveries run under ctx: canceling it aborts in-flight and future
// fetches.
func NewRuntimeContext(ctx context.Context, ds *sdf.Dataset, fetcher Fetcher) *Runtime {
	if ctx == nil {
		ctx = context.Background()
	}
	reg := obs.RegistryOf(ctx)
	return &Runtime{
		ds: ds, fetcher: fetcher, name: ds.Name(), ctx: ctx,
		mMisses:    reg.Counter("kondo_runtime_misses_total"),
		mRecovered: reg.Counter("kondo_runtime_recovered_total"),
	}
}

// Space implements workload.Accessor.
func (rt *Runtime) Space() array.Space { return rt.ds.Space() }

// Misses returns how many element reads touched carved-away data.
func (rt *Runtime) Misses() int64 { return rt.misses.Load() }

// Recovered returns how many missed reads were successfully recovered
// through the fetcher.
func (rt *Runtime) Recovered() int64 { return rt.recovered.Load() }

// ReadElement implements workload.Accessor with miss recovery.
func (rt *Runtime) ReadElement(ix array.Index) (float64, error) {
	v, err := rt.ds.ReadElement(ix)
	if err == nil {
		return v, nil
	}
	if !errors.Is(err, sdf.ErrDataMissing) {
		return 0, err
	}
	return rt.recoverMiss(ix)
}

// recoverMiss counts a read of the carved-away element ix and recovers
// its value through the fetcher.
func (rt *Runtime) recoverMiss(ix array.Index) (float64, error) {
	rt.misses.Add(1)
	rt.mMisses.Inc()
	if rt.fetcher == nil {
		return 0, fmt.Errorf("debloat: %w at %v of %q", ErrDataMissing, ix, rt.name)
	}
	// Only the miss path is traced: hits must stay at raw read cost.
	sp := obs.Start(rt.ctx, "debloat.recover")
	if sp != nil {
		sp.Arg("dataset", rt.name)
	}
	v, err := rt.fetcher.FetchContext(rt.ctx, rt.name, ix)
	sp.End()
	if err != nil {
		return 0, err
	}
	rt.recovered.Add(1)
	rt.mRecovered.Inc()
	return v, nil
}

// ReadSlab implements workload.Accessor: the dense block read of the
// workload layer, in one pass over the block. Present stretches are
// read coalesced, and only the carved-away elements are recovered, in
// row-major order, each counted as a miss exactly as ReadElement counts
// it. With a chunk-caching fetcher (dataserve.Fetcher) the first miss
// of a chunk pulls the whole chunk and its neighbors hit memory.
func (rt *Runtime) ReadSlab(start, count []int) ([]float64, error) {
	return rt.ds.ReadHyperslabFunc(sdf.Slab(start, count), rt.recoverMiss)
}
