# Convenience targets; everything is plain `go` underneath.

.PHONY: test examples-smoke race bench bench-json bench-compare bench-baseline bench-smoke experiments experiments-check experiments-update selfcheck conformance cover fmt fmt-check vet sledvet lint lint-report fuzz-smoke chaos chaos-overload trace-smoke

# Benchmarks gated by the checked-in allocation baseline (hot encode and
# decode paths with metrics off and on, every codec backend through the
# public facade, the engine's pooled batches, the coexistence simulator,
# and a plan's frame-index growth).
BENCH_GATED = BenchmarkSledZigEncode1500B$$|BenchmarkEncodeInstrumented$$|BenchmarkDecodeInstrumented$$|BenchmarkCoreEncodeTo1500B$$|BenchmarkWaveformSynthesis$$|BenchmarkAppendWaveform$$|BenchmarkReceiverDecode1500B$$|BenchmarkSledZigDecode1500B$$|BenchmarkViterbiDecodeInto$$|BenchmarkViterbiDecodeSoftInto$$|BenchmarkViterbiACSReferenceHard$$|BenchmarkViterbiACSReferenceSoft$$|BenchmarkFFTPlanForward64$$|BenchmarkCodecOOKEncode400B$$|BenchmarkCodecOfdmFiEncode400B$$|BenchmarkCodecOOKDecode400B$$|BenchmarkCodecOfdmFiDecode400B$$|BenchmarkQfunc$$|BenchmarkQfuncExact$$|BenchmarkSledvetWholeTree$$|BenchmarkRun$$|BenchmarkSimulateCoexistence$$|BenchmarkEngineEncodeBatch$$|BenchmarkEngineDecodeBatch$$|BenchmarkFrameLayout$$

test: conformance bench-smoke
	go test ./...

# bench/ is a module of its own, so `go build ./...` and `go test ./...`
# at the root never compile it: vet and smoke-test it explicitly, so an
# API change the benchmark depends on fails here.
bench-smoke:
	go -C bench vet ./... && go -C bench test ./...

# The codec-conformance suite on its own: every registered backend against
# the shared contract (round-trip, band-power floor, typed errors, claimed
# allocation bounds — see docs/codecs.md). `make test` covers this too;
# the explicit target is the fast loop while developing a backend.
conformance:
	go test -run 'TestCodecConformance$$|TestCodecInstancesIndependent$$' -v ./internal/codec/

# Run every example end to end, so one that compiles but fails at run
# time fails here.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		go run ./$$d > /dev/null || exit 1; \
	done

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# Machine-readable benchmark run: raw `go test -bench` lines on stdout,
# suitable for piping into benchstat or a JSON converter.
bench-json:
	go test -run '^$$' -bench . -benchmem ./... | tee bench.txt

# Run the gated benchmarks and fail if allocs/op or B/op regressed against
# the checked-in bench.baseline.txt (ns/op is reported but not gated — it
# is machine-dependent). Both follow the code, so CI shortens the run with
# BENCHTIME=100x without weakening the gate.
BENCHTIME ?= 1s
bench-compare:
	go test -run '^$$' -bench '$(BENCH_GATED)' -benchtime $(BENCHTIME) -benchmem . ./internal/wifi/ ./internal/core/ ./internal/mac/ ./internal/analysis/driver/ | tee bench.current.txt
	go run ./cmd/benchdiff -baseline bench.baseline.txt -current bench.current.txt

# Refresh the checked-in baseline after an intentional allocation change.
bench-baseline:
	go test -run '^$$' -bench '$(BENCH_GATED)' -benchmem . ./internal/wifi/ ./internal/core/ ./internal/mac/ ./internal/analysis/driver/ | tee bench.baseline.txt

experiments:
	go run ./cmd/experiments

# The recorded run as a golden: a full experiments run must print
# docs/experiments_output.txt exactly, apart from the engine's wall-clock
# throughput lines (those with "frames/s"), whose figures and worker
# count follow the host. To re-record, run experiments-update.
experiments-check:
	go run ./cmd/experiments > experiments.current.txt
	grep -v 'frames/s' docs/experiments_output.txt > experiments.want.txt
	grep -v 'frames/s' experiments.current.txt | diff -u experiments.want.txt -

# Re-record docs/experiments_output.txt from a full experiments run, only
# after a change that is meant to move the recorded output. Every
# re-record needs a CHANGES.md line saying why the output moved.
experiments-update:
	go run ./cmd/experiments > experiments.current.txt
	mv experiments.current.txt docs/experiments_output.txt

selfcheck:
	go run ./cmd/selfcheck

cover:
	go test -cover ./...

fmt:
	gofmt -w .

# Fail (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# The project's own analyzers (see docs/static-analysis.md). Standalone
# mode; `go vet -vettool=$$(go env GOPATH)/bin/sledvet ./...` works too.
sledvet:
	go run ./cmd/sledvet ./...

# Machine-readable lint artifacts: the version-1 JSON report (then
# re-validated through -check-json, so the emitter can never drift from
# the documented schema) and a SARIF 2.1.0 log for code-scanning UIs.
# `|| true` keeps artifact production going when diagnostics exist; the
# plain `lint` target is what gates.
LINT_DIR ?= .
lint-report:
	go run ./cmd/sledvet -json -sarif $(LINT_DIR)/sledvet.sarif ./... > $(LINT_DIR)/sledvet.json || true
	go run ./cmd/sledvet -check-json $(LINT_DIR)/sledvet.json

# The single lint entry point CI runs: formatting, go vet, staticcheck
# (when installed — CI pins a version; locally it is optional), and the
# project analyzers.
lint: fmt-check vet sledvet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; fi

# Short fuzz runs of every target — a smoke pass, not a campaign. Go runs
# one -fuzz target per package invocation, so each gets its own line.
FUZZTIME ?= 20s
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzDecodeWaveform$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzSignalField$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzParsePPDU$$' -fuzztime $(FUZZTIME) ./internal/zigbee
	go test -run '^$$' -fuzz '^FuzzParseSignalField$$' -fuzztime $(FUZZTIME) ./internal/wifi
	go test -run '^$$' -fuzz '^FuzzViterbiDecode$$' -fuzztime $(FUZZTIME) ./internal/wifi
	go test -run '^$$' -fuzz '^FuzzDemap64RoundTrip$$' -fuzztime $(FUZZTIME) ./internal/wifi
	go test -run '^$$' -fuzz '^FuzzCodecRegistry$$' -fuzztime $(FUZZTIME) ./internal/codec
	go test -run '^$$' -fuzz '^FuzzCFGBuild$$' -fuzztime $(FUZZTIME) ./internal/analysis/cfg
	go test -run '^$$' -fuzz '^FuzzStripFramed$$' -fuzztime $(FUZZTIME) ./internal/core

# Fault-injection soak of the decode pipeline (see docs/robustness.md).
# Exits non-zero on any untyped error, escaped panic, or goroutine leak.
CHAOS_DURATION ?= 30s
chaos:
	go run -race ./cmd/chaos -duration $(CHAOS_DURATION)

# Overload soak (see docs/robustness.md): 4x offered load on a healthy
# engine plus a storm-poisoned codec behind a breaker. Exits non-zero on
# any stalled submit, untyped rejection, latency-bound breach, inert
# breaker, or goroutine leak; writes the health snapshot for archiving.
HEALTH_OUT ?= health.json
chaos-overload:
	go run -race ./cmd/chaos -overload -duration $(CHAOS_DURATION) -health-out $(HEALTH_OUT)

# End-to-end exercise of the per-frame tracing path (see
# docs/observability.md): a short traced chaos soak must produce a
# flight-recorder dump and a Perfetto-loadable Chrome trace, and both
# artifacts must parse and carry frames with stage spans.
TRACE_DIR ?= .
trace-smoke:
	go run ./cmd/chaos -duration 3s -trace-dump $(TRACE_DIR)/flight.json -trace-chrome $(TRACE_DIR)/trace.json
	go run ./cmd/tracecheck -dump $(TRACE_DIR)/flight.json -chrome $(TRACE_DIR)/trace.json
