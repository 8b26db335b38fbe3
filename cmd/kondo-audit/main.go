// Command kondo-audit runs a benchmark program against a real data
// file under the I/O event audit and prints what the audit observed:
// event counts, merged byte ranges, and the resolved index subset.
//
//	kondo-audit -data mnist.sdf -program CS2 -params 1,1
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/array"
	"repro/internal/atomicfile"
	"repro/internal/ioevent"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/sdf"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		data    = flag.String("data", "", "sdf data file")
		dataset = flag.String("dataset", "data", "dataset name")
		program = flag.String("program", "", "benchmark program name")
		params  = flag.String("params", "", "comma-separated parameter values")
		ranges  = flag.Bool("ranges", false, "print every merged byte range")
		logPath = flag.String("log", "", "optional: write the event log to this path")
		replay  = flag.String("replay", "", "replay an event log instead of running (still needs -data for offset resolution)")
		dotPath = flag.String("dot", "", "optional: write the run's provenance graph (Graphviz DOT) to this path")

		traceOut  = flag.String("trace-out", "", "optional: write a Chrome trace-event JSON of the audited run")
		logLevel  = flag.String("log-level", "warn", "diagnostic log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()

	if _, err := obs.SetupCLILogger(*logLevel, *logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "kondo-audit:", err)
		os.Exit(2)
	}
	ctx := context.Background()
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	writeTrace := func() {
		if tr == nil {
			return
		}
		if err := tr.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "kondo-audit: writing trace:", err)
		} else {
			fmt.Fprintf(os.Stderr, "kondo-audit: trace written to %s (%d events)\n", *traceOut, tr.Len())
		}
	}

	if *replay != "" {
		if *data == "" {
			fmt.Fprintln(os.Stderr, "usage: kondo-audit -replay <log> -data <file>")
			os.Exit(2)
		}
		err := runReplay(*replay, *data, *dataset, *ranges)
		writeTrace()
		if err != nil {
			fmt.Fprintln(os.Stderr, "kondo-audit:", err)
			os.Exit(1)
		}
		return
	}
	if *data == "" || *program == "" || *params == "" {
		fmt.Fprintln(os.Stderr, "usage: kondo-audit -data <file> -program <name> -params v1,v2[,v3]")
		os.Exit(2)
	}
	err := run(ctx, *data, *dataset, *program, *params, *ranges, *logPath, *dotPath)
	writeTrace()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kondo-audit:", err)
		os.Exit(1)
	}
}

// runReplay loads a recorded event log and resolves its ranges against
// the data file's metadata — the decoupled analysis path the paper's
// "data store" of system-call arguments enables.
func runReplay(logPath, data, dataset string, printRanges bool) error {
	lf, err := os.Open(logPath)
	if err != nil {
		return err
	}
	defer lf.Close()
	store := ioevent.NewStore()
	if err := ioevent.Replay(lf, store); err != nil {
		return err
	}

	f, err := sdf.Open(data)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := f.Dataset(dataset)
	if err != nil {
		return err
	}
	// The log keys its ranges by the audited file's base name, so a
	// renamed copy of that file resolves nothing.
	name := filepath.Base(data)
	ranges := store.FileRanges(name)
	if files := store.Files(); len(ranges) == 0 && len(files) > 0 && !slices.Contains(files, name) {
		return fmt.Errorf("%s records no reads of %s; it records reads of %s",
			logPath, name, strings.Join(files, ", "))
	}
	indices, err := trace.ResolveIndices(ds, ranges)
	if err != nil {
		return err
	}
	fmt.Printf("replayed:      %d events from %s\n", store.Events(), logPath)
	report(ranges, indices, "", printRanges)
	return nil
}

func run(ctx context.Context, data, dataset, program, paramArg string, printRanges bool, logPath, dotPath string) error {
	v, err := parseParams(paramArg)
	if err != nil {
		return err
	}

	store := ioevent.NewStore()
	tr := trace.NewTracer(store)
	// The log is built in memory (about 30 bytes per event) and written
	// once the run succeeds, so a failed run leaves any old log whole.
	var logBuf bytes.Buffer
	var logWriter *ioevent.LogWriter
	if logPath != "" {
		logWriter = ioevent.NewLogWriter(&logBuf)
		tr.TeeLog(logWriter)
	}
	// The program is sized to the dataset it runs over.
	var p workload.Program
	res, err := trace.Audit(ctx, tr, data, dataset, func(ds *sdf.Dataset) error {
		var err error
		if p, err = workload.ForSpace(program, ds.Space().Dims()); err != nil {
			return err
		}
		return p.Run(v, &workload.Env{Acc: workload.NewFileAccessor(ds)})
	})
	if err != nil {
		return err
	}

	fmt.Printf("program:       %s, parameters %v\n", p.Name(), v)
	fmt.Printf("events:        %d system-call events\n", store.Events())
	if w := store.Writes(); len(w) > 0 {
		fmt.Printf("WARNING:       %d write events (data array is not read-only!)\n", len(w))
	}
	report(res.Ranges, res.Indices, " (I_v)", printRanges)
	if logWriter != nil {
		if err := logWriter.Flush(); err != nil {
			return err
		}
		if err := atomicfile.Write(logPath, 0o666, func(f *os.File) error {
			_, err := f.Write(logBuf.Bytes())
			return err
		}); err != nil {
			return err
		}
		fmt.Printf("event log:     %s (%d bytes)\n", logPath, logBuf.Len())
	}
	if dotPath != "" {
		g := prov.FromStore(store)
		if err := atomicfile.Write(dotPath, 0o666, func(f *os.File) error { return g.DOT(f) }); err != nil {
			return err
		}
		fmt.Printf("provenance:    %s (%d vertices)\n", dotPath, len(g.Vertices()))
	}
	return nil
}

// report prints the merged byte ranges an audit or a replay observed
// and the index subset they resolve to, then, if asked, every range.
func report(ranges []ioevent.Interval, indices *array.IndexSet, subsetNote string, printRanges bool) {
	var covered int64
	for _, r := range ranges {
		covered += r.Len()
	}
	fmt.Printf("byte ranges:   %d merged ranges covering %d bytes\n", len(ranges), covered)
	fmt.Printf("index subset:  %d of %d indices%s\n", indices.Len(), indices.Space().Size(), subsetNote)
	if printRanges {
		for _, r := range ranges {
			fmt.Printf("  [%d, %d)\n", r.Start, r.End)
		}
	}
}

func parseParams(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("invalid parameter %q", p)
		}
		out[i] = v
	}
	return out, nil
}
