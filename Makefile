# Development targets. `make check` is the full local gate:
# vet + build + tests + race detector over the concurrency-sensitive
# packages (the server middleware/limiter, the retrying client, traces).

GO ?= go

# Benchmark selection and output for bench-json. Override BENCH_OUT when
# recording a run that must not clobber a committed baseline of the same
# date, e.g. `make bench-json BENCH_OUT=BENCH_2026-08-06-kernel.json`.
BENCH_PATTERN ?= .
BENCH_OUT ?= BENCH_$(shell date +%F).json

.PHONY: build test vet race bench bench-json bench-io bench-expr bench-integrate bench-self bench-smoke trace-smoke obs-smoke expr-smoke self-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race detector over the packages that exercise concurrency: the
# server's limiter/timeout/shutdown paths, the retrying client, the
# metrics registry, the trace machinery probed by the fuzz-derived
# robustness tests, the sharded severity kernels in internal/core, the
# parallel CUBE XML reader and sharded writer in internal/cubexml, and
# the experiment store's fault-injection suite. The wide-event suites
# (concurrent kernel-shard emission, the event ring, the SLO bucket
# ring) live in these same packages and ride along.
race:
	$(GO) test -race ./internal/server/... ./internal/trace/... ./client/... ./internal/obs/... ./internal/core/... ./internal/cubexml/... ./internal/store/... ./internal/expr/...

bench:
	$(GO) test -bench=$(BENCH_PATTERN) -benchmem -run=^$$ .

# Machine-readable benchmark record (one file per day by default),
# covering the root-package operator benchmarks and the
# instrumentation-overhead benchmark in internal/core.
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -json . ./internal/core > $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# Machine-readable I/O benchmark record: the fast vs legacy CUBE XML
# reader and writer (internal/cubexml) and the server's parse-cache
# hit/miss paths (internal/server). Writes BENCH_<date>-io.json so runs
# sit next to the kernel benchmark records without clobbering them.
BENCH_IO_OUT ?= BENCH_$(shell date +%F)-io.json

bench-io:
	$(GO) test -run='^$$' -bench='BenchmarkRead|BenchmarkWrite|BenchmarkParseCache' -benchmem -json \
		./internal/cubexml ./internal/server > $(BENCH_IO_OUT)
	@echo wrote $(BENCH_IO_OUT)

# Machine-readable expression-engine benchmark record: deep-DAG
# evaluation vs sequential single-operator composition, the result-cache
# replay path, and planning overhead (internal/expr).
BENCH_EXPR_OUT ?= BENCH_$(shell date +%F)-expr.json

bench-expr:
	$(GO) test -run='^$$' -bench='BenchmarkExpr' -benchmem -json ./internal/expr > $(BENCH_EXPR_OUT)
	@echo wrote $(BENCH_EXPR_OUT)

# Machine-readable metadata-integration benchmark record: the identity
# fast path and the integration memo against the cold full treemerge
# (internal/core BenchmarkIntegrate*). Writes BENCH_<date>-integrate.json.
BENCH_INTEGRATE_OUT ?= BENCH_$(shell date +%F)-integrate.json

bench-integrate:
	$(GO) test -run='^$$' -bench='BenchmarkIntegrate' -benchmem -json ./internal/core > $(BENCH_INTEGRATE_OUT)
	@echo wrote $(BENCH_INTEGRATE_OUT)

# Quick CI-friendly sanity run: only the large 64x512x64 operator
# benchmarks (kernel and legacy engines), one iteration set each.
bench-smoke:
	$(GO) test -run='^$$' -bench='_64x512x64' -benchmem -benchtime=1x .

# End-to-end tracing smoke: generate two experiments, diff them with
# -trace, and assert the export is valid Chrome trace-event JSON carrying
# the operator span taxonomy (the same checks as TestCLITraceExport, but
# via the installed binaries — suitable for CI on a built tree).
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp ./cmd/cube-gen ./cmd/cube-diff && \
	$$tmp/cube-gen -app pescan -barriers -seed 1 -o $$tmp/before.cube && \
	$$tmp/cube-gen -app pescan -seed 9 -o $$tmp/after.cube && \
	$$tmp/cube-diff -trace $$tmp/trace.json -o $$tmp/diff.cube $$tmp/before.cube $$tmp/after.cube && \
	$(GO) run ./internal/cli/tracecheck $$tmp/trace.json && \
	echo trace-smoke: ok

# End-to-end observability smoke: an in-process server with the debug
# gate, a store, and SLO objectives; inline + digest + failing traffic;
# then every /debug/events NDJSON line is schema-checked, the
# one-event-per-request invariant is counted, and /debug/slo burn rates
# are recomputed from their own counters. See internal/cli/obssmoke.
obs-smoke:
	$(GO) run ./internal/cli/obssmoke

# End-to-end expression-engine smoke: an in-process server + store,
# nested DAGs with shared subexpressions via the typed client, asserting
# cube_expr_cse_hits_total > 0, exactly one run of the shared operator,
# and a pure result-cache hit on replay. See internal/cli/exprsmoke.
expr-smoke:
	$(GO) run ./internal/cli/exprsmoke

# End-to-end self-telemetry smoke: an in-process server + store takes
# two snapshots of itself around a burst of operator traffic, the
# snapshots parse back as schema-valid CUBE XML, and the server-side
# Difference of the two runs localizes the burst in the request and
# operator counters. See internal/cli/selfsmoke.
self-smoke:
	$(GO) run ./internal/cli/selfsmoke

# Machine-readable self-telemetry benchmark record: the serving-path
# overhead of a live snapshotter (off vs on sub-benchmarks in
# internal/server). Writes BENCH_<date>-self.json.
BENCH_SELF_OUT ?= BENCH_$(shell date +%F)-self.json

bench-self:
	$(GO) test -run='^$$' -bench='BenchmarkSelf' -benchmem -json ./internal/server > $(BENCH_SELF_OUT)
	@echo wrote $(BENCH_SELF_OUT)

check: vet build test race
