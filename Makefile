GO ?= go

.PHONY: build test vet fmt lint lint-json race blas-generic verify bench bench-blas \
	bench-blas-check bench-blas-smoke bench-campaign bench-campaign-check \
	bench-campaign-smoke bench-factor bench-factor-check bench-micro \
	bench-micro-smoke cross-arm64 eval-check plan-golden-smoke profile results

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails if any tracked Go file is not gofmt-formatted. Analyzer golden
# testdata is exempt: its layout is part of what the golden tests pin.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go' | grep -v '/testdata/')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the project's invariant analyzers (determinism, maporder,
# outputpurity, goroutines, layering, floatorder, hotpath — see DESIGN.md
# "Enforced invariants") via go run, so the check needs no installed
# binaries.
lint:
	$(GO) run ./cmd/cocolint ./...

# lint-json writes the same findings machine-readably for CI artifact
# diffing; the run summary stays on stderr so the file is pure JSON.
lint-json:
	@mkdir -p results
	$(GO) run ./cmd/cocolint -json ./... > results/lint.json

test:
	$(GO) test ./...

# blas-generic runs the blas suite with every micro-kernel pinned to the
# portable Go kernel (COCOPELIA_BLAS_KERNEL=generic), so the code path of
# hosts without AVX stays tested on hosts that have it.
blas-generic:
	COCOPELIA_BLAS_KERNEL=generic $(GO) test -count=1 ./internal/blas

# race runs the full suite under the race detector; the eval and
# microbench packages exercise the parallel campaign engine, so this is
# the concurrency regression gate.
race:
	$(GO) test -race ./...

# verify is the pre-commit gate: compile, vet, the gofmt check, the
# invariant analyzers, the race-enabled suite, the blas suite under the
# generic kernel pin, the build-only benchmark
# smoke, one iteration of every per-layer microbenchmark, a sub-second run of the campaign-throughput mode, the
# factorization-sweep identity gate, the golden tile-plan check, the
# committed-figures identity gate, and the arm64 cross-compile (the NEON
# kernels have no native CI runner, so assemble+vet is their regression
# gate).
verify: build vet fmt lint race blas-generic bench-blas-smoke bench-micro-smoke \
	bench-campaign-smoke bench-factor-check plan-golden-smoke eval-check \
	cross-arm64

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# MICRO_BENCH names the per-layer microbenchmarks of the timing path — the
# DES step, link Submit to finish, the cudart dynamic op path and static
# graph launch (each launch to Sync), and a full plan replay — and of the
# factorization and solve payloads (GFLOP/s, allocs/op).
MICRO_BENCH = BenchmarkEngineThroughput|BenchmarkSubmitFinish|BenchmarkDynamicLaunch|BenchmarkGraphLaunch|BenchmarkTrsm|BenchmarkGetrf|BenchmarkPotrf|BenchmarkReplay$$
MICRO_PKGS = ./internal/sim ./internal/link ./internal/cudart ./internal/sched ./internal/blas

# bench-micro measures the per-layer microbenchmarks (ns/op, allocs/op).
bench-micro:
	$(GO) test -run '^$$' -bench '$(MICRO_BENCH)' -benchmem $(MICRO_PKGS)

# bench-micro-smoke runs each microbenchmark once, so verify keeps them
# compiling and running without spending time measuring.
bench-micro-smoke:
	$(GO) test -run '^$$' -bench '$(MICRO_BENCH)' -benchtime=1x $(MICRO_PKGS)

# bench-blas measures the host GEMM payload engine (blocked vs naive,
# serial and pooled) and writes GFLOP/s per (routine, size) as JSON.
bench-blas:
	$(GO) run ./cmd/cocobench -out results/bench-blas.json

# bench-blas-check re-measures the kernel sweep at the fast sizes and
# fails if any (routine, size) row drops below 85% of the committed
# baseline GFLOP/s. Run after touching internal/blas kernels, packing or
# dispatch; refresh the baseline with bench-blas when a slowdown is
# intentional. The 2048 rows are skipped: the naive oracle at that size
# dominates a check run's wall time without adding kernel coverage.
bench-blas-check:
	$(GO) run ./cmd/cocobench -sizes 256,512,1024 -check results/bench-blas.json

# bench-blas-smoke is the verify-time gate for the benchmark tool: it
# must keep compiling, but verify should not spend minutes measuring.
bench-blas-smoke:
	$(GO) build -o /dev/null ./cmd/cocobench

# bench-campaign measures the discrete-event campaign pipeline itself
# (cells/sec, events/sec on a timing-only sweep) — the throughput number
# the DES-core optimizations are judged by.
bench-campaign:
	$(GO) run ./cmd/cocobench -campaign -out results/bench-campaign.json

# bench-campaign-check re-runs the reference campaign and fails if the
# event/plan-cache counters drift from the committed baseline (the sweep
# must stay byte-identical) or if throughput regresses more than 15%
# against it. Run after any change to the DES core, scheduler, or eval
# pipeline; refresh the baseline with bench-campaign when a slowdown is
# intentional.
bench-campaign-check:
	$(GO) run ./cmd/cocobench -campaign -check results/bench-campaign.json

# bench-campaign-smoke runs the campaign mode on a tiny work-list (one
# size, one library) so verify exercises the whole DES pipeline in well
# under a second without keeping an output file.
bench-campaign-smoke:
	$(GO) run ./cmd/cocobench -campaign -smoke -out /dev/null

# bench-factor sweeps the tiled factorization planners (cholesky, lu,
# trsm over the task-graph IR) and records each cell's simulated makespan,
# kernel count and traffic. Refresh the baseline with this target when a
# planner change is intentional.
bench-factor:
	$(GO) run ./cmd/cocobench -factor -out results/bench-factor.json

# bench-factor-check re-runs the factorization sweep and fails on ANY
# drift from the committed baseline — the simulated fields are exact, so
# this is a byte-identity gate on the task-graph planners and their
# replay, not a tolerance check. Sub-second (timing-only simulation).
bench-factor-check:
	$(GO) run ./cmd/cocobench -factor -check results/bench-factor.json

# eval-check regenerates every paper figure from the committed deployments
# into a temporary directory and fails unless stdout matches
# results/eval-output.txt and every results/*.csv matches its fresh copy,
# byte for byte, in both directions (no file missing, none extra). The
# outputs are deterministic, so this is an identity gate, not a tolerance
# check. Refresh the committed files with `make results` when a change to
# them is intentional.
eval-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/cocoeval -deploy results -out "$$tmp" > "$$tmp/eval-output.txt" || exit 1; \
	cmp results/eval-output.txt "$$tmp/eval-output.txt" || exit 1; \
	for f in results/*.csv; do cmp "$$f" "$$tmp/$${f#results/}" || exit 1; done; \
	for f in "$$tmp"/*.csv; do [ -f "results/$${f##*/}" ] || { echo "eval-check: $${f##*/} not committed"; exit 1; }; done; \
	echo "eval-check OK: stdout and $$(ls results/*.csv | wc -l) CSVs identical"

# cross-arm64 cross-compiles and vets the whole module for linux/arm64,
# gating the NEON micro-kernels (gemm_arm64.s) and their build-tagged
# registration on hosts without arm64 hardware or emulation.
cross-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...

# plan-golden-smoke pins the tile-operation IR: the golden plan dumps in
# internal/plan must stay byte-identical, since every scheduler entry point
# replays these plans. Sub-second by construction (tiny shapes, no sim).
plan-golden-smoke:
	$(GO) test -run 'TestGoldenPlans' -count=1 ./internal/plan

# profile captures a CPU profile of the campaign sweep for pprof:
#   go tool pprof -top results/campaign.pprof
profile:
	$(GO) run ./cmd/cocobench -campaign -cpuprofile results/campaign.pprof \
		-out results/bench-campaign.json

results: build
	$(GO) run ./cmd/cocodeploy -out results
	$(GO) run ./cmd/cocoeval -deploy results -out results > results/eval-output.txt
