# Developer targets. `make verify` is the tier-1 gate (see ROADMAP.md).

GO ?= go

.PHONY: build test race vet verify fuzz-smoke bench-quick bench-json bench-check lint-prints lint-metrics-docs lint-fmt trace-demo load-demo verify-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the suite under the race detector in -short mode (the
# timing-sensitive tests skip themselves) — this is what exercises the
# fuzz worker pool and the recovery data plane (dataserve cache /
# singleflight, chunk server, the fetcher over a local origin) for
# data races.
race:
	$(GO) test -race -short ./...

# fuzz-smoke runs each decoder fuzzer for 10 s from its committed seed
# corpus: FuzzChunkFrame (recovery-plane chunk frames; a panic or a
# re-encoding mismatch fails it), FuzzOpen (sdf header, metadata and
# chunk table; a panic, a read outside a dataset's data region, or an
# element whose first byte does not resolve back to it fails it),
# FuzzReadLog (audit event logs; a panic, a replayed range
# that is empty or negative, or a re-encoding mismatch fails it),
# FuzzManifest (debloat manifests with their Merkle section),
# FuzzInclusionIndex (the inclusion-provenance index `kondo explain`
# reads) and FuzzParseSpec (container specifications); a panic fails
# each of the last three. go test fuzzes one target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzChunkFrame$$' -fuzztime 10s -parallel 2 ./internal/dataserve
	$(GO) test -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime 10s -parallel 2 ./internal/sdf
	$(GO) test -run '^$$' -fuzz '^FuzzReadLog$$' -fuzztime 10s -parallel 2 ./internal/ioevent
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 10s -parallel 2 ./internal/debloat
	$(GO) test -run '^$$' -fuzz '^FuzzInclusionIndex$$' -fuzztime 10s -parallel 2 ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s -parallel 2 ./internal/container

# lint-prints rejects unconditional printing from library packages:
# everything under internal/ must route diagnostics through
# internal/obs (slog, off by default) so importing a Kondo package
# never writes to a host program's stdout/stderr. CLIs under cmd/ are
# the allowlist — user-facing output belongs there.
lint-prints:
	@bad=$$(grep -rn 'fmt\.Print\|log\.Print\|log\.Fatal\|log\.Panic\|\bprintln(' internal --include='*.go' | grep -v '_test\.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-prints: unconditional printing in library code (use internal/obs):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "lint-prints: OK"

# lint-metrics-docs checks the README's metrics reference table against
# the telemetry surface in both directions: every kondo_* instrument
# registered in non-test code appears backtick-quoted in README.md, and
# every backtick-quoted kondo_* name in README.md is registered by
# non-test code, so the docs cannot silently drift either way.
lint-metrics-docs:
	@code=$$(grep -rho '"kondo_[a-z_]*"' internal cmd --include='*.go' --exclude='*_test.go' | tr -d '"' | sort -u); \
	docs=$$(grep -o '`kondo_[a-z_]*`' README.md | tr -d '`' | sort -u); \
	missing=$$(for m in $$code; do echo "$$docs" | grep -qx "$$m" || echo "$$m"; done); \
	stale=$$(for m in $$docs; do echo "$$code" | grep -qx "$$m" || echo "$$m"; done); \
	if [ -n "$$missing" ]; then \
		echo "lint-metrics-docs: metrics missing from README.md reference table:"; \
		echo "$$missing"; \
	fi; \
	if [ -n "$$stale" ]; then \
		echo "lint-metrics-docs: README.md documents metrics no non-test code registers:"; \
		echo "$$stale"; \
	fi; \
	[ -z "$$missing$$stale" ]
	@echo "lint-metrics-docs: OK"

# lint-fmt fails when any Go file in the tree is not gofmt-formatted,
# listing the files.
lint-fmt:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "lint-fmt: files not gofmt-formatted (run gofmt -w):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "lint-fmt: OK"

# verify is the full tier-1 check: build, vet, the print lint, the
# metrics-docs lint, the format lint, plain tests, the race-detector
# pass over the concurrent paths, the decoder fuzz smoke runs, and
# the bench regression gate.
verify: build vet lint-prints lint-metrics-docs lint-fmt test race fuzz-smoke bench-check
	@echo "verify: OK"

bench-quick:
	$(GO) run ./cmd/kondo-bench -exp all -quick

# bench-json regenerates the machine-readable perf trajectory points
# in the repo root: BENCH_perf.json (evals/s, hull count, waste ratio,
# bytes kept, recovery round-trips for one end-to-end pipeline),
# BENCH_carve.json (merge-engine pair-test reduction and speedup over
# the naive reference on a many-hull field), and BENCH_serve.json
# (recovery-plane throughput, tail latency, and the paired overhead
# ratios of request tracing and of merkle chunk verification).
bench-json:
	$(GO) run ./cmd/kondo-bench -exp perf -quick -json .
	$(GO) run ./cmd/kondo-bench -exp carve -json .
	$(GO) run ./cmd/kondo-bench -exp serve -quick -json .

# bench-check re-runs the gated experiments with the same flags as
# bench-json and fails when any deterministic count metric regresses
# against the committed BENCH_*.json baselines (wall-clock metrics are
# exempt); every regressed metric of every experiment is listed before
# the non-zero exit. After an intentional behavior change, regenerate
# the baselines with `make bench-json` and commit them.
bench-check:
	$(GO) run ./cmd/kondo-bench -exp perf -quick -check .
	$(GO) run ./cmd/kondo-bench -exp carve -check .
	$(GO) run ./cmd/kondo-bench -exp serve -quick -check .

# load-demo drives a kondo-serve origin with the kondo-load harness
# over loopback: wire-propagated trace contexts must stitch into one
# 2-pid Chrome trace (kondo-viz -check-trace -min-pids 2 verifies),
# the origin must answer the shared observability endpoints, SIGTERM
# must drain gracefully, and the committed BENCH_serve.json baseline
# must still pass the regression gate.
load-demo:
	./scripts/load-demo.sh

# verify-demo exercises verified recovery end to end: debloat a
# dataset into a merkle-rooted manifest, soak the origin through the
# verifying client (all proofs must check out), then flip ONE byte of
# the origin file under the running server and assert the next
# verified run rejects it terminally — non-zero exit, a distinct
# "chunk verification FAILED" report, counted rejections in the result
# JSON, and a live /statusz verify view showing the failure.
verify-demo:
	./scripts/verify-demo.sh

# trace-demo runs a small debloat campaign with tracing on and
# validates the emitted Chrome trace-event JSON with the kondo-viz
# schema checker. Open the file in https://ui.perfetto.dev to see the
# fuzz/carve/write phases and the per-worker lanes.
TRACE_DEMO_OUT ?= trace-demo.json
trace-demo:
	$(GO) run ./cmd/sdfgen -out trace-demo-data.sdf -dims 128x128 -dtype float64 -chunk 16x16
	$(GO) run ./cmd/kondo -program CS2 -budget 400 -workers 4 \
		-data trace-demo-data.sdf -out trace-demo-debloated.sdf \
		-trace-out $(TRACE_DEMO_OUT)
	$(GO) run ./cmd/kondo-viz -check-trace $(TRACE_DEMO_OUT)
	@rm -f trace-demo-data.sdf trace-demo-debloated.sdf
