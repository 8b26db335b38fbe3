// Package kondo is the public API of the Kondo reproduction: efficient
// provenance-driven data debloating (Modi et al., ICDE 2024).
//
// Kondo determines which portions of a data file a containerized
// application can ever access across all supported parameter
// valuations Θ, and builds a debloated copy of the file containing
// only those portions. It combines three pieces:
//
//   - a fine-grained I/O audit that maps system-call byte ranges back
//     to array indices through the data file's self-describing
//     metadata,
//   - a data-coverage-directed fuzzer that mutates parameter values
//     toward the boundaries of the accessed regions, and
//   - a bottom-up convex-hull carver that generalizes the observed
//     indices into the approximated index subset I'_Θ.
//
// Basic use:
//
//	p, _ := kondo.ProgramByName("CS2")
//	res, _ := kondo.Debloat(context.Background(), p, kondo.DefaultConfig())
//	fmt.Println(res.Approx.Len(), "indices kept in", len(res.Hulls), "hulls")
//
// The packages under internal/ hold the implementation; this package
// re-exports the surface a downstream user needs: benchmark programs,
// the debloating pipeline, quality metrics, debloated-file
// materialization with the data-missing runtime, and the container
// spec/image model.
package kondo

import (
	"context"
	"io"

	"repro/internal/array"
	"repro/internal/container"
	"repro/internal/dataserve"
	"repro/internal/debloat"
	"repro/internal/ioevent"
	"repro/internal/kondo"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/sdf"
	"repro/internal/workload"
)

// Program is one debloatable application: it declares its parameter
// space Θ and reads a d-dimensional data array.
type Program = workload.Program

// IndexSet is a set of array indices (I_v, IS, I_Θ, I'_Θ).
type IndexSet = array.IndexSet

// Space is a d-dimensional array index space.
type Space = array.Space

// Index is one d-dimensional array index.
type Index = array.Index

// Config configures the fuzz and carve stages.
type Config = kondo.Config

// Result is the pipeline outcome: fuzz observations, carved hulls, and
// the rasterized approximation I'_Θ.
type Result = kondo.Result

// PR bundles precision and recall.
type PR = metrics.PR

// CampaignStats summarizes a fuzz campaign's throughput: evaluations
// per second, worker utilization, failed-test count, queue depth.
type CampaignStats = metrics.CampaignStats

// CampaignOf extracts the throughput stats of a pipeline result's
// fuzz stage.
func CampaignOf(res *Result) CampaignStats { return metrics.Campaign(res.Fuzz) }

// DebloatStats summarizes a debloated-file materialization.
type DebloatStats = debloat.Stats

// ErrDataMissing is the exception raised when a run of the debloated
// container touches carved-away data.
var ErrDataMissing = debloat.ErrDataMissing

// DefaultConfig returns the paper's §V-B configuration.
func DefaultConfig() Config { return kondo.DefaultConfig() }

// Debloat runs the full pipeline (fuzz → carve → rasterize) for a
// program. Its debloat tests are virtual: each runs the program over
// the index space, not over a data file, so no run is audited (§V-C's
// method). The context bounds the whole pipeline: canceling it (or
// letting its deadline pass) stops the fuzz campaign within one
// evaluation batch; the partial fuzz result is returned alongside the
// context's error. A failing debloat test does not abort the campaign
// — it is recorded in Result.Fuzz.Failures and its seed skipped;
// fuzzing errors out only when every attempted test failed.
func Debloat(ctx context.Context, p Program, cfg Config) (*Result, error) {
	return kondo.Debloat(ctx, p, cfg)
}

// Trace is an in-memory collector of pipeline spans, exportable as
// Chrome trace-event JSON (chrome://tracing, Perfetto). Attach one to
// a context with WithTrace and pass that context to Debloat or a
// Runtime: the fuzz rounds, carve passes, and recovery fetches emit
// spans with zero overhead when no trace is attached.
type Trace = obs.Trace

// NewTrace returns an empty trace collector.
func NewTrace() *Trace { return obs.NewTrace() }

// WithTrace returns a context carrying tr; instrumented pipeline
// stages emit spans into it.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return obs.WithTrace(ctx, tr)
}

// MetricsRegistry is a concurrent registry of named counters, gauges,
// and histograms with Prometheus text exposition (WritePrometheus).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithMetrics returns a context carrying reg; instrumented pipeline
// stages (fuzz counters, runtime miss/recovery counters) update live
// instruments in it.
func WithMetrics(ctx context.Context, reg *MetricsRegistry) context.Context {
	return obs.WithRegistry(ctx, reg)
}

// Programs returns the 11-program benchmark suite of the paper's
// evaluation at the default sizes (128² in 2D, 64³ in 3D).
func Programs() []Program { return workload.All() }

// ProgramByName resolves a benchmark program ("CS1".."CS5", "PRL2D",
// "PRL3D", "LDC2D", "LDC3D", "RDC2D", "RDC3D", "ARD", "MSI").
func ProgramByName(name string) (Program, error) { return workload.ByName(name) }

// ProgramForSpace instantiates a named program sized to the given
// array extents.
func ProgramForSpace(name string, dims []int) (Program, error) {
	return workload.ForSpace(name, dims)
}

// ParamSpace is the advertised parameter space Θ.
type ParamSpace = workload.ParamSpace

// ParamRange is one inclusive integer parameter range Θ_i.
type ParamRange = workload.ParamRange

// WithParams restricts a program to an advertised parameter space (the
// container spec's PARAM line): the debloated subset then follows the
// advertised Θ, not the program's maximal one.
func WithParams(p Program, ps ParamSpace) (Program, error) {
	return workload.WithParams(p, ps)
}

// GroundTruth computes the exact index subset I_Θ of a program.
func GroundTruth(p Program) (*IndexSet, error) { return workload.GroundTruth(p) }

// Evaluate returns precision and recall of an approximation against a
// ground truth.
func Evaluate(truth, approx *IndexSet) PR { return metrics.Evaluate(truth, approx) }

// BloatFraction returns the fraction of the index space a subset
// identifies as bloat.
func BloatFraction(space Space, subset *IndexSet) float64 {
	return metrics.BloatFraction(space, subset)
}

// WriteSubset writes a debloated copy of one dataset of an sdf file,
// keeping only the chunks containing indices of approx.
func WriteSubset(srcPath, dstPath, dataset string, approx *IndexSet, chunk []int) (DebloatStats, error) {
	return debloat.WriteSubset(srcPath, dstPath, dataset, approx, chunk)
}

// WritePacked writes an element-granular debloated copy: the output
// keeps exactly the approved indices as packed runs, removing every
// byte outside I'_Θ.
func WritePacked(srcPath, dstPath, dataset string, approx *IndexSet) (DebloatStats, error) {
	return debloat.WritePacked(srcPath, dstPath, dataset, approx)
}

// Manifest records how a debloated file was produced (carved hulls,
// granularity, sizes) and can answer coverage queries without the
// data file.
type Manifest = debloat.Manifest

// NewManifest assembles a manifest from pipeline outputs.
func NewManifest(program, dataset string, dims []int, granularity string, chunk []int,
	res *Result, stats DebloatStats) *Manifest {
	return debloat.NewManifest(program, dataset, dims, granularity, chunk,
		res.Hulls, stats, res.Fuzz.Evaluations)
}

// LoadManifest reads a manifest written by Manifest.Save.
func LoadManifest(path string) (*Manifest, error) { return debloat.LoadManifest(path) }

// MerkleSpec is a client's trusted description of one dataset's
// serving-chunk Merkle tree: root, leaf count, and pinned geometry.
// Obtain one from a manifest's MerkleSpec method and arm a
// CachedFetcher with SetVerify to reject substituted or tampered
// chunks before they enter the cache.
type MerkleSpec = sdf.MerkleSpec

// ErrVerifyFailed marks a recovered chunk that failed Merkle
// verification (or identity echo) against the manifest root. It is
// terminal: the origin is lying, not flaky, so the fetcher never
// retries it and never degrades it to ErrDataMissing.
var ErrVerifyFailed = dataserve.ErrVerifyFailed

// Fetcher recovers carved-away element values at the user's end
// (paper §VI's remote-fetch path).
type Fetcher = debloat.Fetcher

// NewOriginFetcher returns the CachedFetcher over the original
// (un-debloated) file at path: the same chunk fetcher a remote origin
// gets, with the server called in process. Close releases the file.
func NewOriginFetcher(path string) (*CachedFetcher, error) {
	return dataserve.NewLocalFetcher(path)
}

// Runtime serves a program's reads from a debloated file, raising
// ErrDataMissing (or recovering through a Fetcher) on carved-away
// accesses.
type Runtime = debloat.Runtime

// OpenRuntime opens a debloated data file and returns a Runtime over
// the named dataset, plus a closer for the underlying file.
func OpenRuntime(path, dataset string, fetcher Fetcher) (*Runtime, io.Closer, error) {
	return OpenRuntimeContext(context.Background(), path, dataset, fetcher)
}

// OpenRuntimeContext is OpenRuntime with recoveries bound to ctx:
// canceling ctx aborts in-flight and future fetches.
func OpenRuntimeContext(ctx context.Context, path, dataset string, fetcher Fetcher) (*Runtime, io.Closer, error) {
	f, err := sdf.Open(path)
	if err != nil {
		return nil, nil, err
	}
	ds, err := f.Dataset(dataset)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return debloat.NewRuntimeContext(ctx, ds, fetcher), f, nil
}

// DataServer is the recovery data plane (paper §VI): it serves an
// origin file chunk-granular over HTTP in CRC-checked chunk frames
// (with Merkle inclusion proofs on request) and exposes request
// metrics as Prometheus text on /metrics. The kondo-serve daemon wraps
// it.
type DataServer = dataserve.Server

// NewDataServer opens the origin file and returns a data-plane server;
// mount its Handler() on any net/http server.
func NewDataServer(originPath string) (*DataServer, error) {
	return dataserve.NewServer(originPath)
}

// CachedFetcher recovers carved-away elements from a DataServer: one
// miss pulls the whole containing chunk over a single round trip into
// a bounded LRU cache, concurrent misses on a chunk collapse onto one
// request, and a flaky or dead origin degrades to ErrDataMissing after
// bounded retries instead of hanging.
type CachedFetcher = dataserve.Fetcher

// CachedFetcherConfig tunes a CachedFetcher's cache size, timeouts,
// and retry policy.
type CachedFetcherConfig = dataserve.FetcherConfig

// FetchStats snapshots a CachedFetcher's counters: elements served,
// HTTP round trips, retries, and cache hit rate.
type FetchStats = dataserve.FetchStats

// NewCachedFetcher returns a caching fetcher against a DataServer's
// base URL with default configuration.
func NewCachedFetcher(baseURL string) *CachedFetcher {
	return dataserve.NewFetcherConfig(baseURL, nil, dataserve.FetcherConfig{})
}

// NewCachedFetcherConfig returns a caching fetcher with explicit
// configuration.
func NewCachedFetcherConfig(baseURL string, cfg CachedFetcherConfig) *CachedFetcher {
	return dataserve.NewFetcherConfig(baseURL, nil, cfg)
}

// ProvenanceGraph is a SPADE-style lineage graph built from audit
// events.
type ProvenanceGraph = prov.Graph

// ProvenanceFromStore builds the run-level provenance of an audited
// execution.
func ProvenanceFromStore(store *ioevent.Store) *ProvenanceGraph {
	return prov.FromStore(store)
}

// RecordDebloatProvenance extends a graph with the debloating
// derivation chain (origin → kondo activity → carved file).
func RecordDebloatProvenance(g *ProvenanceGraph, originFile, debloatedFile, program string, res *Result, stats DebloatStats) error {
	return prov.RecordDebloat(g, originFile, debloatedFile, program,
		res.Fuzz.Evaluations, stats.Reduction())
}

// ContainerSpec is a parsed container specification (FROM/RUN/ADD/
// PARAM/ENTRYPOINT/CMD).
type ContainerSpec = container.Spec

// ContainerImage is a built container image.
type ContainerImage = container.Image

// ParseSpec parses a container specification.
func ParseSpec(r io.Reader) (*ContainerSpec, error) { return container.ParseSpec(r) }

// BuildImage materializes a spec's files from srcDir under root.
func BuildImage(spec *ContainerSpec, srcDir, root string) (*ContainerImage, error) {
	return container.Build(spec, srcDir, root)
}
