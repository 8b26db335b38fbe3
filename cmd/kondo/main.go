// Command kondo runs the Kondo data-debloating pipeline.
//
// Two modes:
//
//	kondo -program CS2 [-budget 2000] [-seed 1] [-data in.sdf -dataset data -out debloated.sdf]
//	    Debloat a benchmark program. With -data/-out, also materialize
//	    the debloated data file.
//
//	kondo -spec container.spec -src ./payload -image ./image -debloated ./image-debloated
//	    Parse a container specification, build the image, debloat its
//	    data file for the advertised PARAM space, and rebuild the
//	    image with the carved file. Prints the size reduction.
//
//	kondo explain -prov index.json <file> <offset|i,j,k>
//	    Attribute one kept position of a debloated file to the hull
//	    and seed valuation that caused its inclusion (see -prov).
//
// With -status-addr a program-mode run serves its live campaign views
// (/statusz, /statusz/stream) beside the observability endpoints every
// Kondo daemon shares: /metrics, /healthz, /buildz and /tracez (with
// -trace-out: the live trace).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/sdf"
	"repro/internal/status"
	"repro/internal/workload"
	"repro/kondo"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		if err := explainMode(os.Stdout, os.Stderr, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "kondo:", err)
			os.Exit(1)
		}
		return
	}
	var (
		program  = flag.String("program", "", "benchmark program name (CS1..CS5, PRL2D/3D, LDC2D/3D, RDC2D/3D, ARD, MSI)")
		budget   = flag.Int("budget", 2000, "debloat-test budget (number of audited executions)")
		seed     = flag.Int64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "fuzz worker-pool size (0 = one per CPU); results are identical at any value")
		timeout  = flag.Duration("timeout", 0, "overall deadline for the run (0 = none), e.g. 30s or 5m")
		data     = flag.String("data", "", "optional: sdf data file to debloat")
		dataset  = flag.String("dataset", "data", "dataset name within the data file")
		out      = flag.String("out", "", "optional: path of the debloated data file")
		chunkArg = flag.String("chunk", "16", "debloating chunk extent per dimension (single value or AxBxC)")
		gran     = flag.String("granularity", "chunk", "debloating granularity: chunk or element")
		manifest = flag.String("manifest", "", "optional: path to write the debloat manifest (JSON)")

		spec      = flag.String("spec", "", "container specification file (container mode)")
		src       = flag.String("src", ".", "source directory for ADD entries (container mode)")
		image     = flag.String("image", "", "directory to build the image into (container mode)")
		debloated = flag.String("debloated", "", "directory to build the debloated image into (container mode)")

		traceOut    = flag.String("trace-out", "", "optional: write a Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto)")
		logLevel    = flag.String("log-level", "warn", "diagnostic log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "diagnostic log format: text or json")
		statusAddr  = flag.String("status-addr", "", "optional: serve live campaign status on this address (/statusz JSON, /statusz/stream SSE, /metrics, /healthz, /buildz, /tracez) while the run executes")
		coverageOut = flag.String("coverage-out", "", "optional: write the campaign's coverage time series JSON (render with kondo-viz -coverage)")
		provOut     = flag.String("prov", "", "optional: write the inclusion-provenance index JSON (query with kondo explain)")
	)
	flag.Parse()

	if _, err := obs.SetupCLILogger(*logLevel, *logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "kondo:", err)
		os.Exit(2)
	}

	// Interrupts cancel the campaign instead of killing the process:
	// the pipeline stops within one evaluation batch.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	if *statusAddr != "" {
		// The status address's /metrics needs a registry in the context
		// for the pipeline to publish into.
		ctx = obs.WithRegistry(ctx, obs.NewRegistry())
	}

	var err error
	switch {
	case *spec != "":
		err = containerMode(ctx, *spec, *src, *image, *debloated, *dataset, *budget, *seed, *workers, *chunkArg)
	case *program != "":
		tel := telemetryOpts{statusAddr: *statusAddr, coverageOut: *coverageOut, provOut: *provOut}
		err = programMode(ctx, *program, *data, *dataset, *out, *budget, *seed, *workers, *chunkArg, *gran, *manifest, tel)
	default:
		fmt.Fprintln(os.Stderr, "usage: kondo -program <name> | kondo -spec <file>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// Write the trace even for failed runs — a stopped campaign's trace
	// is exactly what diagnoses it.
	if tr != nil {
		if werr := tr.WriteFile(*traceOut); werr != nil {
			fmt.Fprintln(os.Stderr, "kondo: writing trace:", werr)
			if err == nil {
				err = werr
			}
		} else {
			fmt.Fprintf(os.Stderr, "kondo: trace written to %s (%d events)\n", *traceOut, tr.Len())
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "kondo: campaign stopped:", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "kondo:", err)
		os.Exit(1)
	}
}

// telemetryOpts are the campaign-introspection outputs of one run.
type telemetryOpts struct {
	statusAddr  string // live /statusz + SSE endpoint while running
	coverageOut string // coverage time-series JSON artifact
	provOut     string // inclusion-provenance index JSON artifact
}

func programMode(ctx context.Context, name, data, dataset, out string, budget int, seed int64, workers int, chunkArg, gran, manifestPath string, tel telemetryOpts) error {
	p, err := resolveProgram(name, data, dataset)
	if err != nil {
		return err
	}
	cfg := kondo.DefaultConfig()
	cfg.Fuzz.Seed = seed
	cfg.Fuzz.MaxEvals = budget
	cfg.Fuzz.Workers = workers
	cfg.Carve.Workers = workers
	cfg.Fuzz.Witnesses = tel.provOut != ""

	var st *status.Server
	if tel.statusAddr != "" {
		ln, lerr := net.Listen("tcp", tel.statusAddr)
		if lerr != nil {
			return fmt.Errorf("status endpoint: %w", lerr)
		}
		st = status.NewServer(status.Campaign{
			Program: p.Name(),
			Dataset: dataset,
			Workers: workers,
		}, p.Space().Dims(), p.Space().Size())
		cfg.Fuzz.OnCoverage = st.Publish
		ep := obs.NewEndpoints(obs.RegistryOf(ctx))
		ep.SetTrace(obs.TraceOf(ctx))
		srv := &http.Server{Handler: ep.Handler(st.Handler())}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "kondo: status endpoint on http://%s/statusz\n", ln.Addr())
	}

	res, err := kondo.Debloat(ctx, p, cfg)
	if st != nil {
		st.Finish()
	}
	if res != nil && res.Fuzz != nil && tel.coverageOut != "" {
		// Written even for stopped campaigns: a partial trajectory is
		// exactly what diagnoses them.
		if werr := res.Fuzz.Coverage.WriteFile(tel.coverageOut); werr != nil {
			fmt.Fprintln(os.Stderr, "kondo: writing coverage series:", werr)
		} else {
			fmt.Fprintf(os.Stderr, "kondo: coverage series written to %s (%d points)\n",
				tel.coverageOut, len(res.Fuzz.Coverage.Points))
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("program:     %s (%s)\n", p.Name(), p.Description())
	fmt.Printf("array:       %s, |Θ| = %d\n", p.Space(), p.Params().Valuations())
	fmt.Printf("tests run:   %d (useful %d, non-useful %d)\n",
		res.Fuzz.Evaluations, res.Fuzz.Useful, res.Fuzz.NonUseful)
	fmt.Printf("campaign:    %s\n", kondo.CampaignOf(res))
	fmt.Printf("hulls:       %d\n", len(res.Hulls))
	fmt.Printf("carve:       %d cells -> %d hulls (%d merges in %d passes, %d pair tests, shrinkage %.2f), waste ratio %.2f, saturation %.2f\n",
		res.CarveStats.Cells, res.CarveStats.FinalHulls, res.CarveStats.Merges,
		res.CarveStats.MergePasses, res.CarveStats.PairTests, res.CarveStats.Shrinkage(),
		res.WasteRatio(), res.Fuzz.Coverage.Saturation())
	fmt.Printf("subset:      %d of %d indices (%.2f%% bloat identified)\n",
		res.Approx.Len(), p.Space().Size(),
		100*kondo.BloatFraction(p.Space(), res.Approx))
	fmt.Printf("time:        fuzz %v, carve %v\n", res.FuzzTime, res.CarveTime)

	truth, err := kondo.GroundTruth(p)
	if err != nil {
		return fmt.Errorf("computing ground truth: %w", err)
	}
	pr := kondo.Evaluate(truth, res.Approx)
	fmt.Printf("quality:     precision %.3f, recall %.3f\n", pr.Precision, pr.Recall)

	if data != "" && out != "" {
		wspan := obs.Start(ctx, "kondo.write")
		if wspan != nil {
			wspan.Arg("granularity", gran).Arg("out", out)
		}
		defer wspan.End()
		var stats kondo.DebloatStats
		var chunk []int
		switch gran {
		case "chunk":
			chunk, err = parseChunk(chunkArg, p.Space().Rank())
			if err != nil {
				return err
			}
			stats, err = kondo.WriteSubset(data, out, dataset, res.Approx, chunk)
			if err != nil {
				return err
			}
			fmt.Printf("debloated:   %s (%d -> %d bytes, %.2f%% reduction, %d/%d chunks kept)\n",
				out, stats.OriginalBytes, stats.DebloatedBytes,
				100*stats.Reduction(), stats.KeptChunks, stats.TotalChunks)
		case "element":
			stats, err = kondo.WritePacked(data, out, dataset, res.Approx)
			if err != nil {
				return err
			}
			fmt.Printf("debloated:   %s (%d -> %d bytes, %.2f%% reduction, element-granular)\n",
				out, stats.OriginalBytes, stats.DebloatedBytes, 100*stats.Reduction())
		default:
			return fmt.Errorf("unknown granularity %q (chunk, element)", gran)
		}
		if manifestPath != "" {
			m := kondo.NewManifest(p.Name(), dataset, p.Space().Dims(), gran, chunk, res, stats)
			// Root the manifest over the ORIGINAL data file — the bytes
			// an origin will serve during recovery — so clients can
			// verify every recovered chunk (DESIGN.md §13).
			if err := m.EmbedMerkle(data); err != nil {
				return fmt.Errorf("embedding merkle root: %w", err)
			}
			if err := m.Save(manifestPath); err != nil {
				return err
			}
			fmt.Printf("manifest:    %s (%d hulls, merkle root %s)\n", manifestPath, len(m.Hulls), m.Merkle.Root[:12])
		}
	}
	if tel.provOut != "" {
		var chunk []int
		if gran == "chunk" {
			if c, cerr := parseChunk(chunkArg, p.Space().Rank()); cerr == nil {
				chunk = c
			}
		}
		idx := prov.New(p.Name(), dataset, p.Space(), gran, chunk,
			res.Hulls, res.Fuzz.Seeds, res.Fuzz.Witnesses)
		if err := idx.Save(tel.provOut); err != nil {
			return err
		}
		fmt.Printf("provenance:  %s (%d witnessed indices, %d tests)\n",
			tel.provOut, len(idx.WitnessLins), len(idx.Seeds))
	}
	return nil
}

// resolveProgram picks the program, sized to the data file when one is
// given.
func resolveProgram(name, data, dataset string) (kondo.Program, error) {
	if data == "" {
		return kondo.ProgramByName(name)
	}
	f, err := sdf.Open(data)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := f.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	return kondo.ProgramForSpace(name, ds.Space().Dims())
}

func containerMode(ctx context.Context, specPath, src, imageDir, debloatedDir, dataset string, budget int, seed int64, workers int, chunkArg string) error {
	if imageDir == "" || debloatedDir == "" {
		return fmt.Errorf("container mode needs -image and -debloated directories")
	}
	sf, err := os.Open(specPath)
	if err != nil {
		return err
	}
	spec, err := kondo.ParseSpec(sf)
	sf.Close()
	if err != nil {
		return err
	}
	img, err := kondo.BuildImage(spec, src, imageDir)
	if err != nil {
		return err
	}
	origSize, err := img.Size()
	if err != nil {
		return err
	}
	dataPath, err := spec.DataFile()
	if err != nil {
		return err
	}
	hostData, err := img.HostPath(dataPath)
	if err != nil {
		return err
	}
	f, err := sdf.Open(hostData)
	if err != nil {
		return err
	}
	ds, err := f.Dataset(dataset)
	if err != nil {
		f.Close()
		return err
	}
	dims := ds.Space().Dims()
	f.Close()

	p, err := workload.ForSpace(spec.Entrypoint, dims)
	if err != nil {
		return err
	}
	// The PARAM line narrows the supported parameter space; the
	// debloated subset follows the advertised Θ, not the program's
	// maximal one (paper §I-A).
	if len(spec.Params) > 0 {
		p, err = workload.WithParams(p, spec.Params)
		if err != nil {
			return err
		}
	}
	cfg := kondo.DefaultConfig()
	cfg.Fuzz.Seed = seed
	cfg.Fuzz.MaxEvals = budget
	cfg.Fuzz.Workers = workers
	cfg.Carve.Workers = workers
	res, err := kondo.Debloat(ctx, p, cfg)
	if err != nil {
		return err
	}
	chunk, err := parseChunk(chunkArg, len(dims))
	if err != nil {
		return err
	}
	deb, stats, err := img.DebloatData(debloatedDir, dataPath, dataset, res.Approx, chunk)
	if err != nil {
		return err
	}
	debSize, err := deb.Size()
	if err != nil {
		return err
	}
	fmt.Printf("entrypoint:      %s over %v\n", spec.Entrypoint, dims)
	fmt.Printf("parameter space: |Θ| = %d\n", spec.Params.Valuations())
	fmt.Printf("tests run:       %d\n", res.Fuzz.Evaluations)
	fmt.Printf("data file:       %d -> %d bytes (%.2f%% reduction)\n",
		stats.OriginalBytes, stats.DebloatedBytes, 100*stats.Reduction())
	fmt.Printf("image:           %d -> %d bytes (%.2f%% reduction)\n",
		origSize, debSize, 100*(1-float64(debSize)/float64(origSize)))
	fmt.Printf("debloated image: %s\n", filepath.Clean(debloatedDir))
	return nil
}

// parseChunk parses "16" or "8x8x4" into per-dimension chunk extents.
func parseChunk(arg string, rank int) ([]int, error) {
	parts := strings.Split(arg, "x")
	if len(parts) == 1 {
		var v int
		if _, err := fmt.Sscanf(parts[0], "%d", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid chunk %q", arg)
		}
		chunk := make([]int, rank)
		for k := range chunk {
			chunk[k] = v
		}
		return chunk, nil
	}
	if len(parts) != rank {
		return nil, fmt.Errorf("chunk %q has %d extents, array rank is %d", arg, len(parts), rank)
	}
	chunk := make([]int, rank)
	for k, s := range parts {
		if _, err := fmt.Sscanf(s, "%d", &chunk[k]); err != nil || chunk[k] <= 0 {
			return nil, fmt.Errorf("invalid chunk extent %q", s)
		}
	}
	return chunk, nil
}
