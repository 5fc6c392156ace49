# Makefile — build, vet, test and bench the pak reproduction.

GO ?= go

.PHONY: all build vet test race flake fuzz-smoke bench bench-query bench-service bench-sweep bench-compile load-smoke docs experiments scenarios tidy check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race run doubles as the engine's concurrency-safety proof
# (internal/core and internal/query hammer shared engines).
race:
	$(GO) test -race ./...

# The ordering-flake gate: the packages whose tests drive concurrent
# streams, run repeatedly in shuffled order, so a test that asserts an
# order its contract does not promise fails here instead of passing on
# lucky scheduling.
flake:
	$(GO) test -count=20 -shuffle=on ./internal/service ./internal/query ./internal/load

# The store fuzz smoke: each result-store fuzzer for 10 s — the round
# trip with flipped bytes in both entry layouts, arbitrary entry-file
# bytes at a fixed address, and Put's acceptance against the v1
# backend's. `go test -fuzz` takes one target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzStoreRoundTrip$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDiskEntryBytes$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzPutAcceptsWhatV1Accepted$$' -fuzztime 10s ./internal/store

# Full benchmark suite: every paper experiment (verified per iteration)
# plus the engine performance benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Just the query-batch serial-vs-parallel comparison.
bench-query:
	$(GO) test -run xxx -bench 'QueryBatch' -benchmem .

# The service-hardening benchmarks: parallel cold builds,
# eviction-thrash pricing, the envelope sweep's shared-cache economics
# (N assignments over one EngineCache vs N isolated adversary.Resolve
# builds), and the sampled-first sweep's pruning (exact evaluations
# skipped where an assignment's CI cannot reach the envelope).
bench-service:
	$(GO) test -run xxx -bench 'ColdBuildSerialVsParallel|EvalWithEviction|EnvelopeSharedCache|EnvelopeSampledPrune' -benchmem .

# The sweep-economics benchmarks: the envelope sweep's shared-cache
# comparison, the structure-sharing chain (engines seeded from a
# shape-equal neighbour vs independent engines per assignment), the
# incremental independence scan cold vs seeded, and the exact-arithmetic
# measure kernel vs the naive big.Rat fold (both tiers, both shapes),
# and the unfold alone (nsquad n=2..4), the layer every cold assignment
# pays before its engine exists, and a believes fact at a fresh level on
# a warm nsquad(4) engine (the engine-bound epistemic scan), and a
# buffered four-system shared batch answered wholly from a disk store
# (the store read path).
# Baseline numbers are recorded in BENCHMARKS.md; re-run this target
# after touching the engine's memo tables, the shape gate, the kernel,
# the unfold or the store.
bench-sweep:
	$(GO) test -run xxx -bench 'EnvelopeSharedCache|EnvelopeStructureSharing|IndependenceIncremental|MeasureKernel|PerfNSquadUnfold|BeliefFlood|StoreReplaySharedBatch' -benchmem .

# Bench-compile smoke: run every benchmark in every package exactly once,
# so CI catches a benchmark that no longer compiles or dies on its first
# iteration without paying for a full measured run.
bench-compile:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# The load-smoke gate CI runs: the race-instrumented stress tests over
# an in-process pakd — the buffered mixed workload, the streaming mix
# with full NDJSON frame validation and the prefix-on-timeout variant,
# the envelope mix (adversary sweeps, buffered + streamed, with
# envelope frame validation), and the approx mix (seeded estimates
# strictly before exact refinements per slot, soak-mode stats
# trajectory), and the lp mix (the second exact backend: lp-routed
# evals and streams, the strict 400 probe, per-backend counters), and
# the store-backed restart smoke (populate a persistent result store,
# kill the server, replay byte-identically from a fresh one with store
# hits and zero engine builds) — then pakload smoke runs of all five
# mixes plus a populate-then-replay pair over one store directory
# (exit 1 if any request lands outside its designed outcome class).
load-smoke:
	$(GO) test -run 'TestLoadSmoke|TestStreamLoad|TestStoreRestart|TestLoadColdWarm' -race -count=1 ./internal/load
	$(GO) run ./cmd/pakload -n 80 -c 8 -mix mixed -engine-cache 2 > /dev/null
	$(GO) run ./cmd/pakload -n 80 -c 8 -mix stream -engine-cache 2 > /dev/null
	$(GO) run ./cmd/pakload -n 80 -c 8 -mix envelope -engine-cache 2 > /dev/null
	$(GO) run ./cmd/pakload -n 80 -c 8 -mix approx -engine-cache 2 -stats-interval 50ms > /dev/null
	$(GO) run ./cmd/pakload -n 80 -c 8 -mix lp -engine-cache 2 > /dev/null
	rm -rf /tmp/pak-load-store && $(GO) run ./cmd/pakload -n 40 -c 4 -mix squad -store-dir /tmp/pak-load-store > /dev/null
	$(GO) run ./cmd/pakload -n 40 -c 4 -mix squad -store-dir /tmp/pak-load-store > /dev/null && rm -rf /tmp/pak-load-store

# Regenerate every generated document. CI re-runs this and fails on any
# diff, so SCENARIOS.md and EXPERIMENTS.md can never drift from the code.
docs: scenarios experiments

# Regenerate the scenario catalog from the registry. Build first, then
# move into place, so a failed build can't truncate the committed file.
scenarios:
	$(GO) run ./cmd/pakd -catalog > SCENARIOS.md.tmp && mv SCENARIOS.md.tmp SCENARIOS.md || { rm -f SCENARIOS.md.tmp; exit 1; }

# Regenerate the paper-vs-measured record (same build-then-move dance).
# On a mismatch the partial tables are dumped before cleanup so the CI
# log shows WHICH quantity diverged, not just that one did.
experiments:
	{ echo "# EXPERIMENTS — paper-vs-measured record"; echo; \
	  echo "Generated by \`go run ./cmd/paperbench -markdown\`. Every quantity is"; \
	  echo "computed exactly (\`math/big.Rat\`); a NO in the match column fails CI."; \
	  echo; $(GO) run ./cmd/paperbench -markdown; } > EXPERIMENTS.md.tmp \
	  && mv EXPERIMENTS.md.tmp EXPERIMENTS.md \
	  || { cat EXPERIMENTS.md.tmp; rm -f EXPERIMENTS.md.tmp; exit 1; }

tidy:
	gofmt -l -w .
	$(GO) mod tidy

# The tier-1 gate plus vet, race and the bench-compile smoke: what CI runs.
check: build vet race bench-compile
