// Command kondo-viz regenerates the paper's visual figures as SVG
// files:
//
//	kondo-viz -out ./figures
//
// It renders, for each benchmark program, the ground-truth region
// (Fig. 1 / Table I), and for the cross-stencil base program the
// exploit-explore vs boundary-based EE scatter (Fig. 4) and the
// observed-points-plus-hulls view of the carver (Fig. 6-style).
//
// It also doubles as the trace validator for the observability layer:
//
//	kondo-viz -check-trace trace.json
//
// parses a Chrome trace-event JSON file (as written by kondo
// -trace-out; gzip-compressed .json.gz accepted) and verifies it is
// well-formed: every event has a name and a known phase, complete
// spans carry non-negative durations, instants carry no duration, and
// process_name metadata events name their process. With -min-pids N
// it additionally requires the trace to span at least N distinct
// process lanes — `make load-demo` uses this to assert a stitched
// trace really contains both the kondo-load client and the
// kondo-serve origin.
// On success it prints a per-category summary and exits 0; malformed
// input exits 1.
//
// And as the convergence-plot renderer for campaign telemetry:
//
//	kondo-viz -coverage coverage.json [-coverage-svg out.svg]
//
// reads a coverage time series (as written by kondo -coverage-out)
// and renders the convergence plot — an ASCII chart on stdout, or an
// SVG when -coverage-svg names a destination.
package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/carve"
	"repro/internal/fuzz"
	"repro/internal/viz"
	"repro/internal/workload"
)

func main() {
	var (
		out         = flag.String("out", "figures", "output directory")
		size        = flag.Int("size", 128, "2D array extent")
		budget      = flag.Int("budget", 1500, "fuzz budget for the scatter/hull figures")
		seed        = flag.Int64("seed", 1, "random seed")
		checkTrace  = flag.String("check-trace", "", "validate a Chrome trace-event JSON (or .json.gz) file and exit (no figures are rendered)")
		minPids     = flag.Int("min-pids", 0, "with -check-trace: require at least this many distinct process lanes (0 = any)")
		coverage    = flag.String("coverage", "", "render a coverage time series (kondo -coverage-out) as a convergence plot and exit")
		coverageSVG = flag.String("coverage-svg", "", "with -coverage: write an SVG plot here instead of the ASCII chart")
	)
	flag.Parse()
	if *checkTrace != "" {
		if err := checkTraceFile(os.Stdout, *checkTrace, *minPids); err != nil {
			fmt.Fprintln(os.Stderr, "kondo-viz:", err)
			os.Exit(1)
		}
		return
	}
	if *coverage != "" {
		if err := coverageMode(os.Stdout, *coverage, *coverageSVG); err != nil {
			fmt.Fprintln(os.Stderr, "kondo-viz:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*out, *size, *budget, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "kondo-viz:", err)
		os.Exit(1)
	}
}

// coverageMode renders the convergence plot of a recorded coverage
// series: ASCII to w, or SVG to svgPath when given.
func coverageMode(w *os.File, seriesPath, svgPath string) error {
	s, err := fuzz.LoadCoverageSeries(seriesPath)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("campaign coverage (%s)", filepath.Base(seriesPath))
	if svgPath != "" {
		if err := writeSVG(svgPath, func(f *os.File) error {
			return viz.CoverageSVG(f, s, title)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote convergence plot to %s (%d points)\n", svgPath, len(s.Points))
		return nil
	}
	return viz.CoverageASCII(w, s, 72, 18)
}

// traceEvent mirrors the subset of the Chrome trace-event format that
// internal/obs emits: complete spans (ph "X"), instants (ph "i"), and
// process metadata (ph "M", e.g. process_name for stitched lanes).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// checkTraceFile validates path as a trace-event JSON file and writes
// a summary (event counts per span name, tid lanes seen) to w. A
// .gz-suffixed file (long campaigns produce large exports worth
// compressing) is transparently decompressed.
func checkTraceFile(w *os.File, path string, minPids int) error {
	raw, err := readMaybeGzip(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []traceEvent   `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s: not a trace-event JSON object: %w", path, err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("%s: missing traceEvents array", path)
	}
	spans := map[string]int{}
	tids := map[int]bool{}
	pids := map[int]bool{}
	procNames := map[int]string{}
	instants := 0
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("%s: event %d has no name", path, i)
		}
		// Metadata events carry no timestamp; everything else must.
		if e.Ph != "M" && e.Ts == nil {
			return fmt.Errorf("%s: event %d (%s) has no timestamp", path, i, e.Name)
		}
		switch e.Ph {
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				return fmt.Errorf("%s: span %d (%s) has missing or negative dur", path, i, e.Name)
			}
			spans[e.Name]++
			tids[e.TID] = true
			pids[e.PID] = true
		case "i":
			if e.Dur != nil {
				return fmt.Errorf("%s: instant %d (%s) must not carry a dur", path, i, e.Name)
			}
			instants++
			pids[e.PID] = true
		case "M":
			if e.Name == "process_name" {
				name, ok := e.Args["name"].(string)
				if !ok || name == "" {
					return fmt.Errorf("%s: metadata event %d (process_name, pid %d) has no args.name", path, i, e.PID)
				}
				procNames[e.PID] = name
				pids[e.PID] = true
			}
		default:
			return fmt.Errorf("%s: event %d (%s) has unknown phase %q", path, i, e.Name, e.Ph)
		}
	}
	if minPids > 0 && len(pids) < minPids {
		return fmt.Errorf("%s: trace spans %d distinct process lane(s), want at least %d", path, len(pids), minPids)
	}
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: %d events ok (%d span names, %d instants, %d lanes, %d processes)\n",
		path, len(doc.TraceEvents), len(names), instants, len(tids), len(pids))
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %d\n", n, spans[n])
	}
	if len(procNames) > 0 {
		ids := make([]int, 0, len(procNames))
		for pid := range procNames {
			ids = append(ids, pid)
		}
		sort.Ints(ids)
		for _, pid := range ids {
			fmt.Fprintf(w, "  pid %-4d %s\n", pid, procNames[pid])
		}
	}
	if d, ok := doc.Metadata["dropped_events"]; ok {
		fmt.Fprintf(w, "  (dropped_events: %v)\n", d)
	}
	return nil
}

func run(out string, size, budget int, seed int64) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	// Ground-truth maps of the 2D programs (Fig. 1 / Table I).
	for _, p := range []workload.Program{
		workload.MustCS(2, size), workload.MustCS(1, size), workload.MustCS(3, size),
		workload.MustCS(5, size), workload.MustPRL(size, size),
		workload.MustLDC(size, size), workload.MustRDC(size, size),
	} {
		gt, err := workload.GroundTruth(p)
		if err != nil {
			return err
		}
		if err := writeSVG(filepath.Join(out, "truth-"+p.Name()+".svg"), func(f *os.File) error {
			return viz.IndexSetSVG(f, gt, p.Name()+" ground truth I_Θ")
		}); err != nil {
			return err
		}
	}

	// Fig. 4: schedule scatter, plain EE vs boundary-based EE.
	p := workload.MustCS(2, size)
	for _, boundary := range []bool{false, true} {
		cfg := fuzz.DefaultConfig()
		cfg.Seed = seed
		cfg.MaxEvals = budget
		cfg.MaxIter = 4 * budget
		cfg.StopIter = 0
		cfg.Boundary = boundary
		if boundary {
			cfg.DecayIter = 50
			cfg.Decay = 0.8
		}
		f, err := fuzz.ForProgram(p, cfg)
		if err != nil {
			return err
		}
		res, err := f.Run(context.Background())
		if err != nil {
			return err
		}
		name := "fig4-exploit-explore.svg"
		title := "exploit-explore schedule"
		if boundary {
			name = "fig4-boundary-ee.svg"
			title = "boundary-based EE schedule"
		}
		ps := p.Params()
		if err := writeSVG(filepath.Join(out, name), func(file *os.File) error {
			return viz.ScatterSVG(file, res.Seeds,
				float64(ps[0].Lo), float64(ps[0].Hi), float64(ps[1].Lo), float64(ps[1].Hi), title)
		}); err != nil {
			return err
		}

		// Fig. 6-style: observations + carved hulls (boundary run).
		if boundary {
			hulls, _, err := carve.CarveStats(context.Background(), res.Indices, carve.DefaultConfig())
			if err != nil {
				return err
			}
			if err := writeSVG(filepath.Join(out, "fig6-hulls.svg"), func(file *os.File) error {
				return viz.HullsSVG(file, res.Indices, hulls, "observed indices and carved hulls")
			}); err != nil {
				return err
			}
		}
	}
	fmt.Printf("wrote figures to %s\n", out)
	return nil
}

// readMaybeGzip reads a file, decompressing it when the name ends in
// .gz.
func readMaybeGzip(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("%s: not a gzip file: %w", path, err)
		}
		defer zr.Close()
		return io.ReadAll(zr)
	}
	return io.ReadAll(f)
}

func writeSVG(path string, render func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
