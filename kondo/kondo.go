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
	"repro/internal/kondo"
	"repro/internal/metrics"
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

// ProgramByName resolves a benchmark program ("CS1".."CS5", "PRL2D",
// "PRL3D", "LDC2D", "LDC3D", "RDC2D", "RDC3D", "ARD", "MSI").
func ProgramByName(name string) (Program, error) { return workload.ByName(name) }

// ProgramForSpace instantiates a named program sized to the given
// array extents.
func ProgramForSpace(name string, dims []int) (Program, error) {
	return workload.ForSpace(name, dims)
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
	f, err := sdf.Open(path)
	if err != nil {
		return nil, nil, err
	}
	ds, err := f.Dataset(dataset)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return debloat.NewRuntimeContext(context.Background(), ds, fetcher), f, nil
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

// NewCachedFetcher returns a caching fetcher against a DataServer's
// base URL with default configuration.
func NewCachedFetcher(baseURL string) *CachedFetcher {
	return dataserve.NewFetcherConfig(baseURL, nil, dataserve.FetcherConfig{})
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
