# beesim build/verify loop. Pure stdlib Go — no external tools needed.

GO ?= go

.PHONY: all build test e2e-quick vet fmt lint lint-fix race bench verify bench-baseline bench-diff obs-bench smoke chaos soak

all: verify

build:
	$(GO) build ./...
	$(GO) build -o /dev/null ./cmd/hivereport

vet:
	$(GO) vet ./...

# beelint: the in-tree go/types linter for determinism and unit safety
# (wall-clock reads, unseeded randomness, map-iteration-order leaks,
# mixed-unit float casts, goroutines in DES handlers, naive Joule
# accumulation, captured-state races in parallel task closures,
# non-exhaustive enum switches, dropped write-path errors) over every
# package plus the module-wide interprocedural pass. Any finding fails
# the gate. See docs/LINTING.md.
lint:
	$(GO) run ./cmd/beelint

# Apply the mechanical rewrites (sorted map iteration, compensated
# summation, seeded-rng substitution) to any fixable findings.
lint-fix:
	$(GO) run ./cmd/beelint -fix

# Formatting gate: every tracked .go file outside testdata/ must be
# gofmt-clean (the lint fixture corpus keeps deliberately odd layout).
fmt:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The end-to-end benchmark's quick mode: one round of every workload with
# its output checks, proving the public API the benchmark calls still
# works. _e2ebench is its own module, so ./... never reaches it.
e2e-quick:
	cd _e2ebench && $(GO) test -count=1 ./...

# Every goroutine-spawning package plus its direct drivers runs under
# the race detector on every verify: the protocol server (hivenet), the
# DES engine, the mutex-guarded ledger/obs/store layers, the worker
# pool itself (parallel), and the fan-out call sites in
# swarm/experiments/deployment/optimizer/dsp/routine/queendetect — the
# same closures the sharedcapture analyzer checks statically.
race:
	$(GO) test -race ./internal/hivenet/... ./internal/des/... \
		./internal/ledger/... ./internal/deployment/... \
		./internal/obs/... ./internal/store/... \
		./internal/swarm/... ./internal/experiments/... \
		./internal/parallel/... ./internal/optimizer/... \
		./internal/dsp/... ./internal/faults/... ./internal/slo/... \
		./internal/routine/... ./internal/queendetect/... \
		./internal/loadgen/...

# End-to-end smoke of the -workers plumbing: a multi-worker scenario
# run must complete and pass its own conservation audit. The ledger is
# scratch; the trap removes it whether the run passes or fails.
smoke:
	@tmp=$$(mktemp -t beesim-smoke-XXXXXX.jsonl) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) run ./cmd/beesim scenario -workers 4 -ledger "$$tmp"

# Chaos gate: the fault-injection soak (loss rates 0-100%, no panics,
# no stuck DES, monotone delivered-count) plus a fuzz smoke over the
# plan parser and retry policy. go test runs one fuzz target per
# invocation, so each gets its own 10 s budget.
chaos:
	$(GO) test -run 'Chaos' ./internal/faults/ .
	$(GO) test -run xxx -fuzz 'FuzzFaultPlanJSON' -fuzztime 10s ./internal/faults/
	$(GO) test -run xxx -fuzz 'FuzzRetryPolicy' -fuzztime 10s ./internal/faults/
	$(GO) test -run xxx -fuzz 'FuzzSLOSpecJSON' -fuzztime 10s ./internal/slo/
	$(GO) test -run xxx -fuzz 'FuzzTraceparent' -fuzztime 10s ./internal/hivenet/
	$(GO) test -run xxx -fuzz 'FuzzLintDirective' -fuzztime 10s ./internal/lint/
	$(GO) test -run xxx -fuzz 'FuzzRFFT' -fuzztime 10s ./internal/dsp/
	$(GO) test -run xxx -fuzz 'FuzzLoadSpecJSON' -fuzztime 10s ./internal/loadgen/
	$(GO) test -run xxx -fuzz 'FuzzAdmissionFrame' -fuzztime 10s ./internal/hivenet/

# The full fleet soak: the checked-in fleet_small campaign replayed
# twice against live server shards with leak accounting, behind a build
# tag so the tier-1 gate stays fast (verify runs the short-mode stress
# in `race` instead).
soak:
	$(GO) test -tags soak -race -run 'TestSoak' -v ./internal/loadgen/

# The tier-1 gate: what CI and pre-commit runs.
verify: build vet fmt lint test e2e-quick race chaos smoke bench-diff

# Benchmarks double as the reproduction report (paper figures as custom
# metrics) and as the observability-overhead check (BenchmarkDESLoop*).
bench:
	$(GO) test -bench=. -benchmem .

obs-bench:
	$(GO) test -run xxx -bench 'BenchmarkDESLoop' -benchtime 3000x -count 5 .

# The benchmark sets that bench-baseline pins and bench-diff checks, one
# line each: baseline file, package, the -benchtime of bench-diff's
# smoke run, benchmark regex, then the go test flags of the baseline
# run. The regex holds no spaces; the flags take the rest of the line.
# BENCH_obs.json holds the observability-overhead benchmarks (DES loop
# with obs/ledger on and off, ledger append/audit/export, the 7-day
# deployment run with its ledger, spans and exemplars); compare a branch
# against it to spot probe regressions.
define BENCH_SETS
BENCH_obs.json      .                   300x  BenchmarkDESLoop  -benchmem -benchtime 3000x -count 3
BENCH_obs.json      ./internal/ledger/  1s    BenchmarkLedger  -benchmem -count 3
BENCH_obs.json      ./internal/deployment/ 3x BenchmarkDeploymentRunLedger  -benchmem -benchtime 20x -count 3
BENCH_obs.json      ./internal/obs/     1s    BenchmarkSpanStart|BenchmarkHistogramObserveExemplar  -benchmem -count 3
BENCH_parallel.json .                   10x   BenchmarkSweep(Serial|Parallel)$$|BenchmarkMelSpectrogram(Cold|Cached|Plan)$$|BenchmarkRFFT$$|BenchmarkOptimizeParallel|BenchmarkCampaignParallel  -benchmem -count 3 -benchtime 10x
BENCH_lint.json     ./internal/lint/    1x    BenchmarkLintModule  -benchtime 1x -count 3
BENCH_load.json     ./internal/loadgen/ 100x  BenchmarkLoadgenSchedule|BenchmarkSimulateProbe  -benchmem -count 3
BENCH_load.json     ./internal/hivenet/ 50x   BenchmarkServerHandleUpload  -benchmem -count 3 -benchtime 200x
endef
export BENCH_SETS

# Re-pin every baseline file from BENCH_SETS.
bench-baseline:
	@printf '%s\n' "$$BENCH_SETS" | awk '!seen[$$1]++ {print $$1}' | while read -r file; do : > $$file; done
	@printf '%s\n' "$$BENCH_SETS" | while read -r file pkg smoke regex flags; do \
		$(GO) test -json -run xxx -bench "$$regex" $$flags $$pkg >> $$file || exit 1; \
	done

# Perf regression gate: re-run every set in BENCH_SETS in smoke mode
# (short -benchtime keeps verify fast, -count 3 lets benchdiff take the
# min and shed scheduler noise) and diff against the committed
# baselines with cmd/benchdiff. The smoke ns/op threshold is generous
# (-ns-frac 0.75) because smoke runs are noisy; a real regression is
# usually 2x+. allocs/op stays tight — it is deterministic. See
# docs/PERFORMANCE.md for the methodology.
bench-diff:
	@tmp=$$(mktemp -t beesim-bench-XXXXXX.json); \
	status=1; \
	printf '%s\n' "$$BENCH_SETS" | while read -r file pkg smoke regex flags; do \
		$(GO) test -json -run xxx -bench "$$regex" $$flags -benchtime $$smoke $$pkg >> $$tmp || exit 1; \
	done && \
	$(GO) run ./cmd/benchdiff -ns-frac 0.75 \
		$$(printf '%s\n' "$$BENCH_SETS" | awk '!seen[$$1]++ {print "-baseline", $$1}') $$tmp && status=0; \
	rm -f $$tmp; exit $$status
