// Command kondo-coord is the distributed-campaign coordinator: it
// owns one or more fuzz campaigns' seed schedules and leases seed
// batches to kondo-worker evaluators over TCP, merging results in
// seed order so a fixed-seed distributed campaign is bit-identical to
// a single-process run.
//
//	kondo-coord -program CS2 -budget 2000                 # lease on :9400
//	kondo-coord -program CS2 -addr 127.0.0.1:0 -addr-file coord.addr
//	kondo-coord -program CS2 -local                       # no workers: in-process baseline
//	kondo-coord -program CS2 -campaigns 3 -concurrent 2   # queued campaigns
//
// The -digest-out file records each campaign's result digest (one
// `<id> <digest>` line); two runs with equal digests made identical
// decisions and observed identical data, which is how `make
// orchestra-demo` asserts distributed/local bit-identity. With
// -status-addr the first campaign's live coverage is served exactly
// as `kondo -status-addr` does (/statusz, /statusz/stream), with the
// fleet views (/fleetz, /fleetz/stream) and the observability
// endpoints every Kondo daemon shares: /metrics (including the
// kondo_orchestra_* and kondo_fleet_* series), /healthz, /buildz,
// /tracez (with -trace-out: the live merged fleet trace) and /sloz
// (404: no SLO engine). SIGINT drains gracefully: campaigns stop
// within one batch and workers are sent bye.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/array"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/orchestra"
	"repro/internal/status"
	"repro/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", ":9400", "lease-protocol listen address (use port 0 with -addr-file for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "optional: write the resolved listen address to this file (for scripts using port 0)")
		local    = flag.Bool("local", false, "run the campaigns in-process instead of leasing to workers (baseline for digest comparison)")

		program   = flag.String("program", "", "benchmark program name (CS1..CS5, PRL2D/3D, LDC2D/3D, RDC2D/3D, ARD, MSI)")
		dimsArg   = flag.String("dims", "", "optional: array extents to size the program to, e.g. 64x64")
		budget    = flag.Int("budget", 2000, "debloat-test budget per campaign")
		seed      = flag.Int64("seed", 1, "random seed of the first campaign; campaign k uses seed+k")
		campaigns = flag.Int("campaigns", 1, "number of campaigns to run")

		concurrent  = flag.Int("concurrent", 1, "campaigns running at once (the rest queue)")
		leaseTO     = flag.Duration("lease-timeout", orchestra.DefaultLeaseTimeout, "inflight lease deadline before re-issue")
		workerWait  = flag.Duration("worker-wait", orchestra.DefaultWorkerWait, "how long a batch tolerates zero connected workers before the campaign fails")
		span        = flag.Int("span", 0, "seeds per lease (0 = split each batch across connected workers)")
		digestOut   = flag.String("digest-out", "", "optional: write '<campaign> <digest>' lines to this file")
		coverageOut = flag.String("coverage-out", "", "optional: write the first campaign's coverage time series JSON (render with kondo-viz -coverage)")
		statusAddr  = flag.String("status-addr", "", "optional: serve live campaign status on this address (/statusz JSON, /statusz/stream SSE, /fleetz, /metrics, /healthz, /buildz, /tracez, /sloz) while campaigns run")
		traceOut    = flag.String("trace-out", "", "optional: write a Chrome trace-event JSON of the run")
		logLevel    = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()
	if *program == "" {
		fmt.Fprintln(os.Stderr, "usage: kondo-coord -program <name> [-addr :9400] [-budget N]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	log, err := obs.SetupCLILogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kondo-coord:", err)
		os.Exit(2)
	}
	if err := run(log, *addr, *addrFile, *local, *program, *dimsArg, *budget, *seed,
		*campaigns, *concurrent, *leaseTO, *workerWait, *span,
		*digestOut, *coverageOut, *statusAddr, *traceOut); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "kondo-coord: stopped:", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "kondo-coord:", err)
		os.Exit(1)
	}
}

type logger interface {
	Info(msg string, args ...any)
	Warn(msg string, args ...any)
}

func run(log logger, addr, addrFile string, local bool, program, dimsArg string,
	budget int, seed int64, campaigns, concurrent int,
	leaseTO, workerWait time.Duration, span int,
	digestOut, coverageOut, statusAddr, traceOut string) error {

	dims, err := parseDims(dimsArg)
	if err != nil {
		return err
	}
	spec := orchestra.Spec{Program: program, Dims: dims}
	params, space, err := orchestra.ParamsForSpec(spec)
	if err != nil {
		return err
	}

	// Interrupts drain: campaigns stop within one batch, workers get a
	// bye on their next exchange.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	reg := obs.NewRegistry()
	ctx = obs.WithRegistry(ctx, reg)
	var tr *obs.Trace
	if traceOut != "" {
		// The trace on the Serve context doubles as the merged fleet
		// trace: leases request worker sub-traces and every result
		// stitches its spans in under the worker's pid, so one
		// -trace-out file shows the whole fleet in Perfetto.
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}

	mkConfig := func(k int) fuzz.Config {
		cfg := fuzz.DefaultConfig()
		cfg.Seed = seed + int64(k)
		cfg.MaxEvals = budget
		return cfg
	}

	// Live status: the first campaign publishes its per-batch coverage
	// points, so /statusz and kondo-viz work unchanged on a
	// distributed campaign.
	var st *status.Server
	if statusAddr != "" {
		ln, lerr := net.Listen("tcp", statusAddr)
		if lerr != nil {
			return fmt.Errorf("status endpoint: %w", lerr)
		}
		st = status.NewServer(status.Campaign{Program: spec.String()},
			space.Dims(), space.Size())
		ep := obs.NewEndpoints(reg)
		ep.SetTrace(tr)
		srv := &http.Server{Handler: ep.Handler(st.Handler())}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		log.Info("status endpoint", "url", fmt.Sprintf("http://%s/statusz", ln.Addr()))
	}

	var results []*fuzz.Result
	switch {
	case local:
		results, err = runLocal(ctx, params, space, spec, mkConfig, campaigns, st)
	default:
		results, err = runDistributed(ctx, log, addr, addrFile, spec, mkConfig,
			campaigns, concurrent, leaseTO, workerWait, span, reg, st)
	}
	if st != nil {
		st.Finish()
	}

	// Digests and coverage are written even for failed/partial runs —
	// a stopped campaign's artifacts are exactly what diagnoses it.
	var digests strings.Builder
	for k, res := range results {
		if res == nil {
			continue
		}
		id := campaignID(k)
		d := orchestra.Digest(res)
		fmt.Printf("%s: evals %d, indices %d, stop %s, digest %s\n",
			id, res.Evaluations, res.Indices.Len(), res.StopReason, d)
		fmt.Fprintf(&digests, "%s %s\n", id, d)
		if k == 0 && coverageOut != "" && res.Coverage != nil {
			if werr := res.Coverage.WriteFile(coverageOut); werr != nil {
				log.Warn("writing coverage series", "err", werr)
			}
		}
	}
	if digestOut != "" {
		if werr := os.WriteFile(digestOut, []byte(digests.String()), 0o644); werr != nil {
			log.Warn("writing digests", "err", werr)
		}
	}
	if tr != nil {
		if werr := tr.WriteFile(traceOut); werr != nil {
			log.Warn("writing trace", "err", werr)
		} else {
			log.Info("trace written", "path", traceOut, "events", tr.Len())
		}
	}
	return err
}

// runLocal is the in-process baseline: the same campaigns evaluated
// through the ordinary fuzz pool, for digest comparison against a
// distributed run.
func runLocal(ctx context.Context, params workload.ParamSpace, space array.Space,
	spec orchestra.Spec, mkConfig func(int) fuzz.Config, campaigns int, st *status.Server) ([]*fuzz.Result, error) {

	eval, err := orchestra.EvaluatorForSpec(spec)
	if err != nil {
		return nil, err
	}
	results := make([]*fuzz.Result, campaigns)
	for k := 0; k < campaigns; k++ {
		cfg := mkConfig(k)
		if k == 0 && st != nil {
			cfg.OnCoverage = st.Publish
		}
		f, err := fuzz.New(params, space, eval, cfg)
		if err != nil {
			return results, err
		}
		res, err := f.Run(ctx)
		results[k] = res
		if err != nil {
			return results, fmt.Errorf("campaign %s: %w", campaignID(k), err)
		}
	}
	return results, nil
}

// runDistributed serves the lease protocol and queues the campaigns.
func runDistributed(ctx context.Context, log logger, addr, addrFile string,
	spec orchestra.Spec, mkConfig func(int) fuzz.Config,
	campaigns, concurrent int, leaseTO, workerWait time.Duration, span int,
	reg *obs.Registry, st *status.Server) ([]*fuzz.Result, error) {

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("lease listener: %w", err)
	}
	if addrFile != "" {
		if werr := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); werr != nil {
			ln.Close()
			return nil, fmt.Errorf("writing addr file: %w", werr)
		}
	}
	log.Info("leasing", "addr", ln.Addr().String(), "program", spec.String(), "campaigns", campaigns)

	cfg := orchestra.Config{
		LeaseTimeout:  leaseTO,
		WorkerWait:    workerWait,
		SpanSeeds:     span,
		MaxConcurrent: concurrent,
		Registry:      reg,
	}
	if st != nil {
		cfg.OnFleetEvent = func(ev orchestra.FleetEvent) { st.PublishFleetEvent(ev) }
	}
	coord := orchestra.NewCoordinator(cfg)
	if st != nil {
		// /fleetz answers per-worker health straight off the
		// coordinator's federation state.
		st.SetFleetSource(func() any { return coord.FleetSnapshot() })
	}
	serveCtx, stopServe := context.WithCancel(ctx)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = coord.Serve(serveCtx, ln)
	}()
	defer func() {
		stopServe()
		<-served
	}()

	pending := make([]*orchestra.Pending, campaigns)
	for k := 0; k < campaigns; k++ {
		cfg := mkConfig(k)
		if k == 0 && st != nil {
			cfg.OnCoverage = st.Publish
		}
		pending[k] = coord.Submit(orchestra.Campaign{ID: campaignID(k), Spec: spec, Fuzz: cfg})
	}
	results := make([]*fuzz.Result, campaigns)
	for k, p := range pending {
		res, err := p.Wait(ctx)
		results[k] = res
		if err != nil && ctx.Err() == nil {
			return results, fmt.Errorf("campaign %s: %w", p.Campaign.ID, err)
		}
	}
	return results, ctx.Err()
}

func campaignID(k int) string { return "campaign-" + strconv.Itoa(k) }

func parseDims(arg string) ([]int, error) {
	if arg == "" {
		return nil, nil
	}
	parts := strings.Split(arg, "x")
	dims := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -dims %q: want e.g. 64x64", arg)
		}
		dims[i] = n
	}
	return dims, nil
}
