// Command kondo-worker is a remote campaign evaluator: it connects to
// a kondo-coord coordinator, pulls leased seed spans, runs the debloat
// tests through the ordinary in-process fuzz pool, and streams
// per-seed results back. Workers are stateless — start as many as the
// hardware allows, on any machine that can reach the coordinator; a
// worker that dies mid-lease is harmless (the coordinator re-issues
// its leases and results stay bit-identical).
//
//	kondo-worker -coord 127.0.0.1:9400
//	kondo-worker -coord coord-host:9400 -name gpu-box -workers 8
//	kondo-worker -coord 127.0.0.1:9400 -idle-exit 30s   # exit when drained
//
// With -status-addr the worker serves the observability endpoints
// every Kondo daemon shares: /metrics (its kondo_orchestra_worker_*
// series in Prometheus text), /healthz, /buildz, /tracez (with
// -trace-out: the live trace) and /sloz (404: no SLO engine). SIGINT
// sends the coordinator an orderly bye and exits.
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
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/orchestra"
)

func main() {
	var (
		coord      = flag.String("coord", "", "coordinator lease-protocol address")
		name       = flag.String("name", "", "worker name in coordinator logs (default: the connection's local address)")
		workers    = flag.Int("workers", 0, "evaluation pool size per lease (0 = 1, inline)")
		idleExit   = flag.Duration("idle-exit", 0, "exit successfully after this long without a lease (0 = run until interrupted)")
		maxLeases  = flag.Int("max-leases", 0, "crash while holding the next lease after completing this many (fault-injection hook; 0 = unlimited)")
		statusAddr = flag.String("status-addr", "", "optional: serve the worker's /metrics, /healthz, /buildz, /tracez and /sloz on this address")
		traceOut   = flag.String("trace-out", "", "optional: write a Chrome trace-event JSON of evaluated leases")
		logLevel   = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, error")
		logFormat  = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()
	if *coord == "" {
		fmt.Fprintln(os.Stderr, "usage: kondo-worker -coord <host:port>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	log, err := obs.SetupCLILogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kondo-worker:", err)
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	reg := obs.NewRegistry()
	ctx = obs.WithRegistry(ctx, reg)
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}

	if *statusAddr != "" {
		ln, lerr := net.Listen("tcp", *statusAddr)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "kondo-worker: status endpoint:", lerr)
			os.Exit(1)
		}
		ep := obs.NewEndpoints(reg)
		ep.SetTrace(tr)
		srv := &http.Server{Handler: ep.Handler(nil)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		log.Info("metrics endpoint", "url", fmt.Sprintf("http://%s/metrics", ln.Addr()))
	}

	w := &orchestra.Worker{
		Addr:      *coord,
		Name:      *name,
		Workers:   *workers,
		IdleExit:  *idleExit,
		MaxLeases: *maxLeases,
		Registry:  reg,
	}
	log.Info("kondo-worker starting", "coord", *coord, "pool", *workers)
	start := time.Now()
	err = w.Run(ctx)
	if tr != nil {
		if werr := tr.WriteFile(*traceOut); werr != nil {
			log.Warn("writing trace", "err", werr)
		} else {
			log.Info("trace written", "path", *traceOut, "events", tr.Len())
		}
	}
	evals := reg.Counter("kondo_orchestra_worker_evals_total").Value()
	leases := reg.Counter("kondo_orchestra_worker_leases_total").Value()
	log.Info("kondo-worker done", "leases", leases, "evals", evals, "elapsed", time.Since(start).Round(time.Millisecond))
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		// Interrupted: the drain already said bye.
	default:
		fmt.Fprintln(os.Stderr, "kondo-worker:", err)
		os.Exit(1)
	}
}
