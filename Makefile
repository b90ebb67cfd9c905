GO ?= go

.PHONY: all build test race race-color race-colored race-shard vet bce bench bench-json bench-spmm bench-smoke bench-diff ci tune-demo telemetry-smoke fuzz-smoke serve-smoke attrib-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-colored focuses the race detector on the conflict-free colored
# schedule: its correctness claim is precisely "no two concurrent blocks
# write the same element", which -race verifies directly against the real
# interleavings.
race-colored:
	$(GO) test -race -run Color ./internal/color ./internal/core .

# race-color stresses the recursive algebraic coloring specifically: the
# level-set construction, the recursive split, the greedy-vs-recursive
# comparison on the scattered suite, and the colored kernels (symmetric and
# kind-generalized) that execute the resulting schedule, repeated so the
# scheduler sees varied interleavings.
race-color:
	$(GO) test -race -count=3 -run 'Color|Recursive|Level' ./internal/color
	$(GO) test -race -run 'Color|Kind' ./internal/core ./internal/fuzzcheck

# race-shard focuses the race detector on the NUMA-sharded execution path:
# the domain-scoped spin barriers, the hierarchical two-level reduction
# (domain-local combine overlapping remote multiplies is exactly where a
# misscoped barrier would race), and the differential topology sweep.
race-shard:
	$(GO) test -race -run 'Hier|Domain|Shard|Topolog' ./internal/parallel ./internal/partition ./internal/core ./internal/fuzzcheck .

vet:
	$(GO) vet ./...

# bce fails if a bounds check on a matrix array (RowPtr/ColIdx/Val/...)
# reappears inside the inner loop of a rewritten SpM×V body — the loops
# marked `// bce:inner` in internal/core and internal/csr. Gathers and
# scatters through x, y and the local vectors may keep their checks.
bce:
	GO=$(GO) ./scripts/bce_check.sh

# Quick benchmark smoke: the execution-engine microbenchmarks (pool dispatch,
# spin vs channel phases) plus the host SpM×V dispatch comparison.
bench:
	$(GO) test -run xxx -bench 'BenchmarkPoolRun|BenchmarkRunPhases|BenchmarkSpinBarrier' -benchtime 200x ./internal/parallel
	$(GO) test -run xxx -bench 'BenchmarkSpMVDispatch|BenchmarkCGFusion' -benchtime 50x .

# bench-json measures every symmetric method (matrix × threads) on this host
# with the per-phase breakdown and writes the machine-readable record to
# BENCH_pr10.json; gate a change with
# `go run ./cmd/bench-diff BENCH_pr8.json BENCH_pr10.json`.
bench-json:
	$(GO) run ./cmd/spmv-bench -exp bench-json -scale 0.02 -iters 16 -json BENCH_pr10.json

# bench-spmm sweeps multi-RHS widths (scalar, spmm2/4/8, each with and
# without hub caching where the analysis finds a hub) over a paper-suite
# subset plus the synthetic power-law hub matrices, and writes the
# machine-readable record to BENCH_pr6.json. Scale 0.15 keeps the run short
# while making x large enough that hub caching has cache pressure to relieve.
bench-spmm:
	$(GO) run ./cmd/spmv-bench -exp spmm-bench -scale 0.15 -iters 24 -matrices consph,bmw7st_1 -json BENCH_pr6.json

# bench-smoke is the cheap CI gate for the SpMM fast path: it checks the
# deterministic traffic model — matrix bytes per useful flop must fall
# strictly as the RHS width grows — and runs each blocked width once.
# Wall-clock is deliberately not asserted (CI machines are too noisy).
bench-smoke:
	$(GO) run ./cmd/spmv-bench -exp spmm-smoke -scale 0.01 -matrices consph

# telemetry-smoke runs cg-solve with the metrics endpoint and trace writer
# enabled, scrapes /metrics for the kernel phase histograms, and validates
# the Chrome trace parses — the observability layer end to end.
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# fuzz-smoke is the adversarial gate: the full differential suite (every
# generator case × format × reduction × thread count vs the serial dense
# reference) under the race detector, then each native fuzz target on a short
# budget. Go allows one -fuzz pattern per invocation, hence the loop; the
# checked-in regression corpus under internal/fuzzcheck/testdata/ also runs
# on every plain `go test`.
fuzz-smoke:
	$(GO) test -race -count=1 ./internal/fuzzcheck/
	for t in FuzzReadMatrixMarket FuzzDecodeBlob FuzzSymDeserialize; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s ./internal/fuzzcheck/ || exit 1; \
	done

# attrib-smoke drives the roofline attribution engine end to end: a live
# solve must expose physically plausible achieved-bandwidth fractions per
# (method, phase) on /debug/attrib and /metrics, and a served solve must
# carry its request id (inbound traceparent) and stage timings through the
# structured request log.
attrib-smoke:
	./scripts/attrib_smoke.sh

# bench-diff self-tests the benchmark regression sentinel against the
# checked-in record: a record diffed against itself must be clean, and a
# synthetically halved copy must make the sentinel exit non-zero. To gate a
# real change: `make bench-json` on both revisions, then
# `go run ./cmd/bench-diff OLD.json NEW.json`.
bench-diff:
	go run ./cmd/bench-diff BENCH_pr8.json BENCH_pr8.json >/dev/null
	@tmp=$$(mktemp); jq '.records[].gflops_host *= 0.5' BENCH_pr8.json > $$tmp; \
	if go run ./cmd/bench-diff BENCH_pr8.json $$tmp >/dev/null 2>/dev/null; then \
		echo "bench-diff: FAIL: sentinel missed a 50% regression"; rm -f $$tmp; exit 1; \
	fi; rm -f $$tmp
	@if [ -f BENCH_pr10.json ]; then \
		go run ./cmd/bench-diff BENCH_pr8.json BENCH_pr10.json || exit 1; \
	fi
	@echo "bench-diff: sentinel OK (clean self-diff, regression caught)"

# serve-smoke drives symspmv-serve end to end: load a generated matrix, show
# that concurrent solves coalesce into multi-RHS dispatches (batch-size
# histogram >= 2 on /metrics) with every lane matching a scalar reference
# solve to 1e-12, that a saturated queue returns typed 429s instead of
# hanging, and that SIGTERM drains cleanly.
serve-smoke:
	./scripts/serve_smoke.sh

# ci is the gate for every change: vet (fails the build on findings), build,
# the bounds-check gate on the kernel inner loops, the colored-schedule and sharded-execution race focuses, the full test
# suite under the race
# detector (the execution engine's spin barrier and phase fusion are exactly
# the kind of code -race exists for), the telemetry smoke, the fuzz smoke
# (differential checking plus a short run of each fuzz target), the SpMM
# traffic-model smoke, and the serving-path smoke.
ci: vet build bce race-colored race-shard race telemetry-smoke fuzz-smoke bench-smoke serve-smoke attrib-smoke bench-diff

# tune-demo runs the empirical autotuner on a small slice of the paper suite
# and prints one decision table per matrix: every candidate plan with its
# modeled prediction, measured micro-trial time, build cost, and fate.
tune-demo:
	$(GO) run ./cmd/spmv-bench -format auto -scale 0.05 -matrices parabolic_fem,consph
