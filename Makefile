# Developer entry points. CI runs the same targets (see
# .github/workflows/ci.yml).

GO ?= go
BENCH_DATE := $(shell date +%Y%m%d)
BENCHTIME ?= 1s
# bench-gate failure threshold: fail when any benchmark regresses by
# more than this percentage over the committed baseline.
BENCH_OVER ?= 25
# allocs/op gate: benchmarks matching ALLOC_GATE fail bench-gate when
# their allocation count regresses by more than ALLOC_OVER percent
# (allocs are deterministic, so this stays strict even on noisy CI).
ALLOC_OVER ?= 10
ALLOC_GATE ?= EpochSolve|PlanRepair|FrontierMoveRepair|StreamIngest|MetricsObserve|ColdPlanBuild|IngestDecode|C1Ingest

.PHONY: all build vet fmt-check test examples bench bench-smoke bench-baseline bench-compare bench-gate profile

all: vet fmt-check build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: fail when any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Build and run every example program; API drift in examples/ breaks
# this target (and CI) rather than rotting silently.
examples:
	$(GO) build ./examples/...
	@for ex in quickstart inference-vs-probability disjoint-paths peer-monitoring; do \
		echo "== examples/$$ex"; $(GO) run ./examples/$$ex >/dev/null || exit 1; \
	done

test:
	$(GO) test ./...

# Full benchmark run, recorded as a dated JSON snapshot so the perf
# trajectory is tracked from PR to PR (see DESIGN.md reference table).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -json . | tee BENCH_$(BENCH_DATE).json

# One-iteration smoke: every benchmark must still execute.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

# Refresh the committed baseline snapshot that bench-compare diffs
# against. Run on a quiet box and commit the result.
bench-baseline:
	$(GO) test -run '^$$' -bench . -benchmem -json . > BENCH_baseline.json

# Diff a fresh run against the committed baseline. Informational by
# default (benchdiff always exits 0 without -fail-over); CI runs this
# with BENCHTIME=1x as a reported, non-fatal step.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -json . > BENCH_compare.json
	$(GO) run ./cmd/benchdiff BENCH_baseline.json BENCH_compare.json

# The same comparison as a hard gate: exit non-zero when any benchmark
# regresses more than BENCH_OVER over the committed baseline, or when
# an epoch-solve benchmark (ALLOC_GATE) regresses allocs/op by more
# than ALLOC_OVER. CI runs this as a required step (BENCHTIME=0.5s,
# BENCH_OVER=50 to absorb runner noise); the defaults here are the
# strict local gate.
bench-gate:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -json . > BENCH_compare.json
	$(GO) run ./cmd/benchdiff -fail-over $(BENCH_OVER) -allocs-over $(ALLOC_OVER) -allocs-for '$(ALLOC_GATE)' BENCH_baseline.json BENCH_compare.json

# CPU + memory profiles of the sharded epoch solve, the streaming hot
# path: emits cpu.pprof / mem.pprof for `go tool pprof`.
profile:
	$(GO) test -run '^$$' -bench BenchmarkShardedEpochSolve -benchmem -benchtime $(BENCHTIME) -cpuprofile cpu.pprof -memprofile mem.pprof .
