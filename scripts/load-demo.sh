#!/bin/sh
# load-demo: drive a kondo-serve recovery origin with the kondo-load
# heavy-traffic harness over loopback and assert the serving
# observability layer end to end (DESIGN.md §14):
#
#   1. stitching — kondo-load stamps a trace context onto every
#      request, kondo-serve records child spans under it, and the
#      harness pulls /tracez and writes ONE Chrome trace spanning both
#      processes, which `kondo-viz -check-trace -min-pids 2` verifies;
#   2. SLO — the origin runs an error-budget SLO over its chunk
#      endpoint and the load run soak-polls /sloz, failing if the
#      budget is ever exhausted;
#   3. drain — SIGTERM flips the origin's /healthz to 503 before it
#      stops accepting work, so balancers drain it gracefully;
#   4. gate — the committed BENCH_serve.json baseline still passes
#      `kondo-bench -exp serve -check`.
#
# Open the trace in https://ui.perfetto.dev: the kondo-load lane shows
# client fetch spans (cache verdicts, retries) and the kondo-serve lane
# the matching serve.chunk child spans re-based onto the client clock.
set -eu

REQUESTS="${REQUESTS:-3000}"
CONCURRENCY="${CONCURRENCY:-8}"
SEED="${SEED:-1}"

workdir=$(mktemp -d "${TMPDIR:-/tmp}/load-demo.XXXXXX")
serve_pid=""
cleanup() {
    if [ -n "$serve_pid" ]; then
        kill "$serve_pid" 2>/dev/null || true
    fi
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "load-demo: building sdfgen, kondo-serve, kondo-load, kondo-viz"
go build -o "$workdir/sdfgen" ./cmd/sdfgen
go build -o "$workdir/kondo-serve" ./cmd/kondo-serve
go build -o "$workdir/kondo-load" ./cmd/kondo-load
go build -o "$workdir/kondo-viz" ./cmd/kondo-viz

echo "load-demo: materializing a 128x128 origin (16x16 chunks)"
"$workdir/sdfgen" -out "$workdir/origin.sdf" -dims 128x128 -dtype float64 -chunk 16x16

echo "load-demo: starting kondo-serve with tracing and a chunk SLO"
"$workdir/kondo-serve" -origin "$workdir/origin.sdf" \
    -addr 127.0.0.1:0 -addr-file "$workdir/serve.addr" \
    -trace -slo-endpoints chunk -slo-latency 100ms -slo-target 0.99 \
    -drain-delay 100ms -log-level warn &
serve_pid=$!

# Wait for the origin to publish its ephemeral address.
i=0
while [ ! -s "$workdir/serve.addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "load-demo: kondo-serve failed to start" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$workdir/serve.addr")

echo "load-demo: closed-loop run, $REQUESTS requests x $CONCURRENCY workers, soak-polling /sloz"
"$workdir/kondo-load" -url "http://$addr" \
    -requests "$REQUESTS" -concurrency "$CONCURRENCY" -seed "$SEED" \
    -soak-interval 250ms \
    -trace-out "$workdir/load-trace.json" -json "$workdir/load-result.json" \
    -log-level warn

echo "load-demo: validating the stitched client+server trace (>= 2 process lanes)"
"$workdir/kondo-viz" -check-trace "$workdir/load-trace.json" -min-pids 2

echo "load-demo: draining the origin (SIGTERM; /healthz must go 503 before exit)"
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "load-demo: kondo-serve exited non-zero on drain" >&2
    exit 1
fi
serve_pid=""

echo "load-demo: checking the committed BENCH_serve.json baseline"
go run ./cmd/kondo-bench -exp serve -quick -check .

echo "load-demo: OK — one trace file spans kondo-load and kondo-serve, budget intact"
