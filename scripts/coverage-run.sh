#!/usr/bin/env bash
# coverage-run: which functions does no production run of Kondo reach?
#
# Builds every main under cmd/ and examples/, and perfbench, with
# `-cover -coverpkg=repro/...`, runs the production scenarios under one
# GOCOVERDIR, and prints, by package, every function that
# `go tool covdata func` reports at 0% (ROADMAP item 5's method):
#
#   scripts/coverage-run.sh [workdir]
#
# The scenarios are `make trace-demo`, scripts/load-demo.sh,
# scripts/verify-demo.sh, `kondo-bench -exp all -quick`, the seven
# examples, kondo-audit (-ranges -log -dot, then -replay of that log)
# on a 128x128 long-double file in 16x16 chunks, and perfbench's four
# workloads at --seconds 1. Each scenario's output goes to
# <workdir>/logs/<scenario>.txt; a failing scenario is reported and
# the run goes on, then exits 1 after printing the list. The binaries,
# profiles, logs and the full per-function table (func.txt) stay in
# workdir, a fresh temporary directory when none is given. On two
# cores the run takes about a minute with a warm build cache and about
# ten with a cold one; it is not part of `make verify`.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="${1:-$(mktemp -d "${TMPDIR:-/tmp}/coverage-run.XXXXXX")}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"
bin="$work/bin" logs="$work/logs"
export GOCOVERDIR="$work/cov"
rm -rf "$GOCOVERDIR"
mkdir -p "$bin" "$logs" "$GOCOVERDIR"

failed=()
# scenario NAME CMD... runs one scenario with its output in the logs.
scenario() {
	local name="$1"
	shift
	echo "coverage-run: $name" >&2
	if ! "$@" >"$logs/$name.txt" 2>&1; then
		echo "coverage-run: $name FAILED (see $logs/$name.txt)" >&2
		failed+=("$name")
	fi
}

# Every `go build` and `go run` below, the demo scripts' included,
# builds instrumented binaries that write their profiles to GOCOVERDIR.
export GOFLAGS="-cover -coverpkg=repro/..."
cd "$root"

echo "coverage-run: building the mains under cmd/ and examples/, and perfbench" >&2
for d in cmd/* examples/*; do
	go build -o "$bin/$(basename "$d")" "./$d"
done
(cd perfbench && GOPROXY=off go build -o "$bin/perfbench" .)

scenario trace-demo make -s trace-demo TRACE_DEMO_OUT="$work/trace-demo.json"
scenario load-demo ./scripts/load-demo.sh
scenario verify-demo ./scripts/verify-demo.sh

# The remaining scenarios write their files under the work directory.
cd "$work"
scenario kondo-bench "$bin/kondo-bench" -exp all -quick
for ex in "$root"/examples/*; do
	name="$(basename "$ex")"
	scenario "example-$name" "$bin/$name"
done
scenario sdfgen "$bin/sdfgen" -out audit.sdf -dims 128x128 -dtype longdouble -chunk 16x16
scenario kondo-audit "$bin/kondo-audit" -data audit.sdf -program CS2 -params 1,1 \
	-ranges -log audit.log -dot audit.dot
scenario kondo-audit-replay "$bin/kondo-audit" -replay audit.log -data audit.sdf
for w in ard-virtual ldc-audited msi-file prl-recover; do
	scenario "perfbench-$w" "$bin/perfbench" --workload "$w" --seed 1 --seconds 1
done

go tool covdata func -i="$GOCOVERDIR" >"$work/func.txt"

# func.txt lines read "repro/internal/geom/box.go:17:<tab>NewBox<tab>0.0%";
# the package is the file's directory.
unreached() {
	awk '$1 != "total" && $NF == "0.0%" {
		pkg = $1; sub(/\/[^\/]*$/, "", pkg)
		print pkg "\t" $2
	}' "$work/func.txt"
}
echo "functions at 0%, by package (func.txt and the logs are in $work):"
unreached | awk -F'\t' '
	$1 != pkg { if (pkg != "") print pkg ": " fns; pkg = $1; fns = $2; next }
	{ fns = fns ", " $2 }
	END { if (pkg != "") print pkg ": " fns }'
n_all="$(unreached | wc -l)"
n_lib="$(unreached | grep -cv '^repro/perfbench\|^repro/examples/' || true)"
echo "unreached: $n_all functions, $n_lib outside perfbench and examples;" \
	"$(awk '$1 == "total" { print "statements covered", $NF }' "$work/func.txt")"
if [ "${#failed[@]}" -gt 0 ]; then
	echo "coverage-run: failed scenarios: ${failed[*]}" >&2
	exit 1
fi
