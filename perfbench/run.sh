#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/
# and runs it from the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload ard-virtual --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the compiler's temporary files and the go
# command's own config and telemetry files live under .bench_build/
# too, so a run reads and writes nothing outside the checkout. Outside
# a full checkout (no ../go.mod) the build fails and the script exits
# non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/perfbench"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
		GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
	go build -o "$build/perfbench" .
)
cd "$root"
exec "$build/perfbench" "$@"
