// Command kondo-load is the heavy-traffic harness for the recovery
// plane: it drives a kondo-serve origin through the real caching
// client in open-loop (fixed arrival rate) or closed-loop (fixed
// concurrency) mode and reports throughput, exact tail-latency
// quantiles and cache hit rate.
//
//	kondo-load -url http://127.0.0.1:8080 -requests 10000 -concurrency 16
//	kondo-load -url http://127.0.0.1:8080 -mode open -rate 500 -duration 10s
//	kondo-load -url ... -popularity uniform -json result.json
//	kondo-load -url ... -requests 5000 -trace-out stitched.json    # 2-pid trace
//
// With -trace-out the run records every client fetch span (retry,
// cache verdict, singleflight) into a trace, stamps each request's
// trace context onto the wire, then pulls the server's /tracez export
// and stitches it in under pid 2 — one Chrome/Perfetto file covering
// both processes, checkable with kondo-viz -check-trace -min-pids 2.
// The pull is bounded in time, in events (what the client trace can
// still hold) and in bytes; an origin that stalls or oversends costs a
// warning and a single-pid trace, never a hung exit.
//
// With -status-addr the harness serves, while the run is in flight,
// /statusz (with the live verify view under -manifest) beside the
// observability endpoints every Kondo daemon shares: /metrics (the
// kondo_load_* series), /healthz, /buildz and /tracez (with
// -trace-out: the live client trace).
//
// With -manifest pointing at a Merkle-rooted debloat manifest every
// chunk miss is fetched with an inclusion proof and verified against
// the pinned root before entering the cache; tampered origin bytes are
// rejected terminally and fail the run. A manifest without a merkle
// section runs unverified, with a warning.
//
// Exit status: 0 on success, 1 when the run errored or any chunk failed
// verification, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataserve"
	"repro/internal/debloat"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/sdf"
	"repro/internal/status"
)

func main() {
	var (
		url         = flag.String("url", "", "base URL of the kondo-serve origin (e.g. http://127.0.0.1:8080)")
		dataset     = flag.String("dataset", "data", "dataset to drive")
		mode        = flag.String("mode", "closed", "load mode: closed (fixed concurrency) or open (fixed arrival rate)")
		popularity  = flag.String("popularity", "zipf", "chunk popularity: zipf or uniform")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate in requests/second")
		concurrency = flag.Int("concurrency", 8, "worker count (closed) / in-flight cap (open)")
		requests    = flag.Int("requests", 0, "bound the run by request count")
		duration    = flag.Duration("duration", 0, "bound the run by wall time")
		seed        = flag.Int64("seed", 0, "popularity rng seed (0 = from clock)")
		manifest    = flag.String("manifest", "", "debloat manifest JSON; when it carries a merkle section, every miss is proof-verified against its root")
		statusAddr  = flag.String("status-addr", "", "optional: serve /statusz (with live verify counters), /metrics, /healthz, /buildz and /tracez on this address during the run")
		statusFile  = flag.String("status-addr-file", "", "optional: write the resolved -status-addr listen address to this file (for scripts using port 0)")
		jsonOut     = flag.String("json", "", "optional: write the result JSON to this file")
		traceOut    = flag.String("trace-out", "", "optional: write a stitched client+server Chrome trace to this file")
		logLevel    = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()
	if *url == "" {
		fmt.Fprintln(os.Stderr, "usage: kondo-load -url http://host:port [-requests N | -duration D]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	log, err := obs.SetupCLILogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kondo-load:", err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	cfg := load.Config{
		BaseURL:     strings.TrimSuffix(*url, "/"),
		Dataset:     *dataset,
		Mode:        load.Mode(*mode),
		Popularity:  load.Popularity(*popularity),
		Rate:        *rate,
		Concurrency: *concurrency,
		Requests:    *requests,
		Duration:    *duration,
		Seed:        *seed,
		Registry:    reg,
	}

	// -manifest arms the verifying client: the manifest's merkle section
	// pins the root every miss is checked against. A manifest without
	// one (written before verified recovery) degrades to unverified
	// serving with a warning.
	var spec *sdf.MerkleSpec
	if *manifest != "" {
		m, err := debloat.LoadManifest(*manifest)
		if err != nil {
			log.Error("loading manifest", "path", *manifest, "err", err)
			os.Exit(2)
		}
		spec, err = m.MerkleSpec()
		if err != nil {
			log.Error("manifest merkle section rejected", "path", *manifest, "err", err)
			os.Exit(2)
		}
		if spec == nil {
			log.Warn("manifest has no merkle section; recovery is UNVERIFIED", "path", *manifest)
		} else {
			cfg.Verify = spec
			log.Info("chunk verification armed", "root", spec.RootHex()[:12], "leaves", spec.Leaves)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With -trace-out every request records into tr (and stamps its
	// trace context onto the wire for the server's child spans).
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		tr.SetProcessName(obs.LocalPID, "kondo-load")
		ctx = obs.WithTrace(ctx, tr)
	}

	// -status-addr exposes the run's own observability while it drives
	// load: /statusz (with the live verify view) and the shared
	// endpoints.
	if *statusAddr != "" {
		ln, err := net.Listen("tcp", *statusAddr)
		if err != nil {
			log.Error("listening on -status-addr", "addr", *statusAddr, "err", err)
			os.Exit(2)
		}
		if *statusFile != "" {
			if werr := os.WriteFile(*statusFile, []byte(ln.Addr().String()+"\n"), 0o644); werr != nil {
				log.Error("writing status addr file", "path", *statusFile, "err", werr)
				os.Exit(2)
			}
		}
		sv := status.NewServer(status.Campaign{Program: "kondo-load", Dataset: *dataset}, nil, 0)
		if spec != nil {
			root := spec.RootHex()
			cfg.OnFetcher = func(f *dataserve.Fetcher) {
				sv.SetVerifySource(func() any {
					st := f.Stats()
					return map[string]any{
						"algo":          spec.Algo,
						"root":          root,
						"leaves":        spec.Leaves,
						"verify_ok":     st.VerifyOK,
						"verify_failed": st.VerifyFailed,
					}
				})
			}
		}
		ep := obs.NewEndpoints(reg)
		ep.SetTrace(tr)
		hs := &http.Server{Handler: ep.Handler(sv.Handler())}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		log.Info("status server listening", "addr", ln.Addr().String())
	}

	log.Info("kondo-load starting", "url", cfg.BaseURL, "mode", *mode,
		"popularity", *popularity, "requests", *requests, "duration", duration.String())
	res, err := load.Run(ctx, cfg)
	if err != nil {
		log.Error("load run failed", "err", err)
		os.Exit(1)
	}
	fmt.Println(res.String())

	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			log.Error("writing result json", "path", *jsonOut, "err", err)
			os.Exit(1)
		}
		log.Info("result written", "path", *jsonOut)
	}

	if tr != nil {
		sctx, cancel := context.WithTimeout(ctx, stitchTimeout)
		stitchAndWrite(sctx, log, tr, cfg.BaseURL, *traceOut)
		cancel()
	}
	if res.Fetch.VerifyFailed > 0 {
		log.Error("chunk verification FAILED: origin bytes do not match the manifest's merkle root",
			"failed", res.Fetch.VerifyFailed, "verified", res.Fetch.VerifyOK)
		os.Exit(1)
	}
}

// stitchTimeout bounds the /tracez pull at exit. The origin serves
// its export from memory, so even a full trace crosses loopback well
// within it; an origin that stops answering must not hang the exit.
const stitchTimeout = 10 * time.Second

// maxTracezBytes caps the /tracez body the harness will read: 256
// bytes per event (a serve span with its propagated ids encodes to
// about 170) for as many events as a client trace can hold.
const maxTracezBytes = 256 * obs.DefaultTraceLimit

// stitchAndWrite pulls the origin's /tracez export, at most as many
// events as tr can still hold, merges it into the client trace under
// pid 2, and writes the combined Chrome trace. An origin without a
// trace, or one that stalls past ctx or oversends, degrades to a
// single-pid trace with a warning rather than failing the run.
func stitchAndWrite(ctx context.Context, log interface {
	Info(string, ...any)
	Warn(string, ...any)
}, tr *obs.Trace, baseURL, path string) {
	if room := obs.DefaultTraceLimit - tr.Len(); room <= 0 {
		log.Warn("client trace is full; not stitching the origin's trace")
	} else if wt, err := fetchTrace(ctx, baseURL, room); err != nil {
		log.Warn("origin trace not stitched", "err", err)
	} else {
		tr.Merge(2, wt)
		if wt.Omitted > 0 || wt.Dropped > 0 {
			log.Warn("server trace truncated", "omitted", wt.Omitted, "dropped", wt.Dropped)
		}
	}
	if err := tr.WriteFile(path); err != nil {
		log.Warn("writing trace", "path", path, "err", err)
		return
	}
	log.Info("stitched trace written", "path", path, "events", tr.Len(), "pids", len(tr.PIDs()))
}

// fetchTrace GETs baseURL/tracez?max=max and decodes at most
// maxTracezBytes of it.
func fetchTrace(ctx context.Context, baseURL string, max int) (obs.WireTrace, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/tracez?max=%d", baseURL, max), nil)
	if err != nil {
		return obs.WireTrace{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return obs.WireTrace{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return obs.WireTrace{}, errors.New("origin records no trace (start kondo-serve with -trace)")
	}
	if resp.StatusCode != http.StatusOK {
		return obs.WireTrace{}, fmt.Errorf("/tracez answered %s", resp.Status)
	}
	return decodeTrace(resp.Body, maxTracezBytes)
}

// decodeTrace decodes one WireTrace from r, failing once more than
// limit bytes have been read.
func decodeTrace(r io.Reader, limit int64) (obs.WireTrace, error) {
	var wt obs.WireTrace
	lr := &io.LimitedReader{R: r, N: limit + 1}
	err := json.NewDecoder(lr).Decode(&wt)
	if lr.N == 0 {
		return obs.WireTrace{}, fmt.Errorf("/tracez body exceeds %d bytes", limit)
	}
	if err != nil {
		return obs.WireTrace{}, fmt.Errorf("decoding /tracez: %w", err)
	}
	return wt, nil
}
