#!/bin/sh
# verify-demo: end-to-end verified recovery (DESIGN.md §13):
#
#   1. debloat — `kondo` carves a subset and writes a manifest whose
#      merkle section roots the ORIGINAL dataset's serving chunks;
#   2. verified soak — `kondo-load -manifest` drives the origin through
#      the verifying client: every miss fetches a KDB2 proof frame and
#      checks it against the pinned root before caching (exit 0, all
#      proofs good);
#   3. tamper — ONE byte of the origin file is flipped in place while
#      kondo-serve keeps running (its memoized Merkle tree now
#      disagrees with the bytes it serves);
#   4. rejection — a second verified run must fail terminally (exit 1,
#      "chunk verification FAILED"), count the rejection in its JSON
#      result, and report it live on its own /statusz verify view.
#
# Both daemons must also answer the shared observability endpoints:
# /healthz ok, /buildz JSON and /metrics with kondo_build_info, on
# kondo-serve's -addr and on kondo-load's -status-addr.
set -eu

SEED="${SEED:-1}"

workdir=$(mktemp -d "${TMPDIR:-/tmp}/verify-demo.XXXXXX")
serve_pid=""
load_pid=""
cleanup() {
    for pid in "$serve_pid" "$load_pid"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "verify-demo: building sdfgen, kondo, kondo-serve, kondo-load"
go build -o "$workdir/sdfgen" ./cmd/sdfgen
go build -o "$workdir/kondo" ./cmd/kondo
go build -o "$workdir/kondo-serve" ./cmd/kondo-serve
go build -o "$workdir/kondo-load" ./cmd/kondo-load

echo "verify-demo: materializing a 128x128 origin (16x16 chunks)"
"$workdir/sdfgen" -out "$workdir/origin.sdf" -dims 128x128 -dtype float64 -chunk 16x16

echo "verify-demo: debloating with a merkle-rooted manifest"
"$workdir/kondo" -program CS2 -budget 400 -seed "$SEED" \
    -data "$workdir/origin.sdf" -out "$workdir/debloated.sdf" \
    -manifest "$workdir/manifest.json" -log-level warn
grep -q '"merkle"' "$workdir/manifest.json" || {
    echo "verify-demo: manifest has no merkle section" >&2
    exit 1
}

echo "verify-demo: starting kondo-serve over the pristine origin"
"$workdir/kondo-serve" -origin "$workdir/origin.sdf" \
    -addr 127.0.0.1:0 -addr-file "$workdir/serve.addr" -log-level warn &
serve_pid=$!
i=0
while [ ! -s "$workdir/serve.addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "verify-demo: kondo-serve failed to start" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$workdir/serve.addr")

# check_surface BASE NAME: the shared observability endpoints answer.
check_surface() {
    [ "$(curl -fsS "$1/healthz")" = ok ] || {
        echo "verify-demo: $2 /healthz is not ok" >&2
        exit 1
    }
    curl -fsS "$1/buildz" | grep -q '"go_version"' || {
        echo "verify-demo: $2 /buildz lacks go_version" >&2
        exit 1
    }
    curl -fsS "$1/metrics" | grep -q '^kondo_build_info{' || {
        echo "verify-demo: $2 /metrics lacks kondo_build_info" >&2
        exit 1
    }
}
echo "verify-demo: scraping kondo-serve's /healthz, /buildz and /metrics"
check_surface "http://$addr" kondo-serve

echo "verify-demo: verified soak against the pristine origin (must pass)"
"$workdir/kondo-load" -url "http://$addr" -manifest "$workdir/manifest.json" \
    -requests 2000 -concurrency 8 -popularity uniform -seed "$SEED" \
    -json "$workdir/clean.json" -log-level warn
grep -q '"VerifyFailed": 0' "$workdir/clean.json" || {
    echo "verify-demo: clean run reported verification failures" >&2
    exit 1
}
grep -q '"VerifyOK": 0' "$workdir/clean.json" && {
    echo "verify-demo: clean run verified nothing" >&2
    exit 1
}

echo "verify-demo: flipping one byte of the origin under the running server"
size=$(wc -c < "$workdir/origin.sdf")
off=$((size - 9))
byte=$(od -An -tu1 -j "$off" -N1 "$workdir/origin.sdf" | tr -d ' ')
flipped=$(( (byte + 1) % 256 ))
# shellcheck disable=SC2059
printf "$(printf '\\%03o' "$flipped")" | \
    dd of="$workdir/origin.sdf" bs=1 seek="$off" conv=notrunc 2>/dev/null

echo "verify-demo: verified run against the tampered origin (must reject)"
# Open-loop at a fixed rate so the run spans a few seconds — long
# enough to scrape the live /statusz verify view mid-run.
rc=0
"$workdir/kondo-load" -url "http://$addr" -manifest "$workdir/manifest.json" \
    -mode open -rate 500 -duration 4s -concurrency 8 -popularity uniform -seed "$SEED" \
    -status-addr 127.0.0.1:0 -status-addr-file "$workdir/status.addr" \
    -json "$workdir/tampered.json" -log-level warn 2> "$workdir/tampered.log" &
load_pid=$!
# Scrape the harness's live /statusz verify view mid-run: the tampered
# chunk's rejection must show up there, not only in the final result.
statusz=""
surfaced=""
i=0
while [ "$i" -lt 200 ]; do
    i=$((i + 1))
    if [ -s "$workdir/status.addr" ]; then
        if [ -z "$surfaced" ]; then
            echo "verify-demo: scraping kondo-load's /healthz, /buildz and /metrics"
            check_surface "http://$(cat "$workdir/status.addr")" kondo-load
            surfaced=1
        fi
        statusz=$(curl -fsS "http://$(cat "$workdir/status.addr")/statusz" 2>/dev/null || true)
        case "$statusz" in
        *'"verify_failed":'[1-9]*) break ;;
        esac
    fi
    kill -0 "$load_pid" 2>/dev/null || break
    sleep 0.05
done
if wait "$load_pid"; then rc=0; else rc=$?; fi
load_pid=""

[ "$rc" -eq 1 ] || {
    echo "verify-demo: tampered run exited $rc, want 1" >&2
    exit 1
}
grep -q 'chunk verification FAILED' "$workdir/tampered.log" || {
    echo "verify-demo: tampered run did not report the terminal rejection" >&2
    cat "$workdir/tampered.log" >&2
    exit 1
}
grep -q '"VerifyFailed": 0' "$workdir/tampered.json" && {
    echo "verify-demo: tampered run counted no verification failures" >&2
    exit 1
}
case "$statusz" in
*'"verify_failed":'[1-9]*) ;;
*)
    echo "verify-demo: /statusz never showed the rejection: $statusz" >&2
    exit 1
    ;;
esac
[ -n "$surfaced" ] || {
    echo "verify-demo: kondo-load's -status-addr was never scraped" >&2
    exit 1
}

echo "verify-demo: OK — one flipped byte rejected end to end (exit 1, JSON counters, live /statusz)"
