// Command kondo-serve is the recovery origin daemon of paper §VI: it
// serves the original (un-debloated) data file to debloated-container
// runtimes chunk by chunk, so data-missing exceptions resolve over
// single round trips.
//
//	kondo-serve -origin mnist.sdf                    # serve on :8080
//	kondo-serve -origin mnist.sdf -addr 127.0.0.1:9090 -concurrency 64
//	kondo-serve -origin mnist.sdf -addr 127.0.0.1:0 -addr-file serve.addr
//	kondo-serve -origin mnist.sdf -trace -drain-delay 1s
//
// One mux on -addr serves the data plane — /meta (JSON geometry) and
// /chunk (CRC-checked chunk frames, with a Merkle inclusion proof when
// asked for proof=1) — beside the observability endpoints every Kondo
// daemon shares: /metrics (Prometheus text: request counts, bytes
// served, latency histograms), /healthz (503 while draining), /buildz,
// and /tracez (with -trace-out or -trace: the live trace as an
// obs.WireTrace for cross-process stitching). -concurrency bounds only
// the data plane, so health checks and scrapes never queue behind slow
// chunk reads. With -debug-addr a second mux exposes /debug/pprof/*
// and /debug/vars for runtime profiling. SIGINT/SIGTERM flip /healthz
// to 503, wait -drain-delay for balancers to notice, drain in-flight
// requests, write the /metrics exposition to stdout, and exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"expvar"

	"repro/internal/dataserve"
	"repro/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (use port 0 with -addr-file for an ephemeral port)")
		addrFile    = flag.String("addr-file", "", "optional: write the resolved listen address to this file (for scripts using port 0)")
		origin      = flag.String("origin", "", "path to the origin (un-debloated) sdf file")
		concurrency = flag.Int("concurrency", 0, "max concurrent requests (0 = unlimited)")
		readTO      = flag.Duration("read-timeout", 10*time.Second, "per-request read timeout")
		writeTO     = flag.Duration("write-timeout", 30*time.Second, "per-request write timeout")
		grace       = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
		drainDelay  = flag.Duration("drain-delay", 0, "lame-duck window between flipping /healthz to 503 and starting shutdown")

		debugAddr = flag.String("debug-addr", "", "optional: listen address for the debug mux (/debug/pprof/*, /debug/vars); keep it loopback-only")
		traceFlag = flag.Bool("trace", false, "record request spans and expose them at /tracez (implied by -trace-out)")
		traceOut  = flag.String("trace-out", "", "optional: write a Chrome trace-event JSON of served requests at shutdown")
		logLevel  = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()
	if *origin == "" {
		fmt.Fprintln(os.Stderr, "usage: kondo-serve -origin <file.sdf> [-addr :8080]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	log, err := obs.SetupCLILogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kondo-serve:", err)
		os.Exit(2)
	}

	srv, err := dataserve.NewServer(*origin)
	if err != nil {
		log.Error("opening origin", "err", err)
		os.Exit(1)
	}
	defer srv.Close()
	reg := srv.Registry()
	ep := obs.NewEndpoints(reg)
	reg.SetHelp("kondo_serve_draining", "1 while the server is draining (healthz returns 503).")
	reg.GaugeFunc("kondo_serve_draining", func() float64 {
		if ep.Draining() {
			return 1
		}
		return 0
	})

	bi := obs.Build()
	log.Info("kondo-serve starting",
		"origin", *origin, "addr", *addr,
		"go_version", bi.GoVersion, "revision", bi.Revision, "modified", bi.Modified)

	// Request tracing: the server stamps serve.<endpoint> spans (child
	// hops when the caller propagated a trace context) into tr, exposed
	// live at /tracez for stitching and optionally dumped at shutdown.
	var tr *obs.Trace
	if *traceFlag || *traceOut != "" {
		tr = obs.NewTrace()
		tr.SetProcessName(obs.LocalPID, "kondo-serve")
		srv.EnableTracing(tr)
		ep.SetTrace(tr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{
		Handler:      handler(srv.Handler(), ep, *concurrency),
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
	}

	// The debug mux is opt-in and separate from the data plane, so
	// profiling endpoints are never reachable through the serving
	// address.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux}
		go func() {
			log.Info("debug mux listening", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Warn("debug mux failed", "err", err)
			}
		}()
	}

	// Listen explicitly (rather than ListenAndServe) so port 0 resolves
	// before -addr-file is written — scripts poll the file, then dial.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if werr := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); werr != nil {
			log.Error("writing addr file", "path", *addrFile, "err", werr)
			os.Exit(1)
		}
	}

	errc := make(chan error, 1)
	go func() {
		log.Info("serving", "origin", *origin, "addr", ln.Addr().String())
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		// Drain: flip /healthz to 503 first so load balancers stop
		// routing, give them the lame-duck window, then shut down.
		ep.SetDraining(true)
		log.Info("draining", "delay", drainDelay.String(), "grace", grace.String())
		if *drainDelay > 0 {
			time.Sleep(*drainDelay)
		}
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Warn("shutdown incomplete", "err", err)
		}
	}
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	if tr != nil && *traceOut != "" {
		if err := tr.WriteFile(*traceOut); err != nil {
			log.Warn("writing trace", "err", err)
		} else {
			log.Info("trace written", "path", *traceOut, "events", tr.Len())
		}
	}
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		log.Warn("writing metrics", "err", err)
	}
}

// handler composes the serving address's one mux: the data plane
// behind the -concurrency limiter, the observability endpoints outside
// it, so /healthz and /metrics answer at once even while every data
// slot is held (the first proof=1 request reads the whole dataset to
// build its Merkle tree) — which is when the drain 503 and an overload
// scrape are needed.
func handler(data http.Handler, ep *obs.Endpoints, concurrency int) http.Handler {
	return ep.Handler(dataserve.LimitConcurrency(data, concurrency))
}
