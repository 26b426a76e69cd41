# Tier-1 verification and the race-checked service suite.
GO ?= go

.PHONY: all build vet lint conformance test race fuzz crash-recovery chaos bench benchreport run-daemon clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full lint: vet plus staticcheck when it is on PATH (CI installs it; local
# runs degrade to vet-only rather than requiring the install).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only"; \
	fi
	$(GO) test -count=1 -run 'TestRegistryComplete' ./internal/engine

# The model-conformance gate: every registered communication model's
# reference workload, byte-identical across the applicable engines, and
# the flooding kernel against the sequential engine, under the race
# detector.
conformance:
	$(GO) test -race -count=1 -run 'Conformance|RegistryComplete|Flood' ./internal/engine

test: build
	$(GO) test ./...

# The parallel vectorized engine, the anonnetd worker pool, and the job
# codec are permanently race-checked: this is the CI gate.
race:
	$(GO) test -race ./...

fuzz:
	$(GO) test -fuzz=FuzzSpecCodec -fuzztime=30s ./internal/job
	$(GO) test -fuzz=FuzzAppendF64 -fuzztime=30s ./internal/job
	$(GO) test -fuzz=FuzzAppendVector -fuzztime=30s ./internal/job
	$(GO) test -fuzz=FuzzStoreRecord -fuzztime=30s ./internal/store
	$(GO) test -fuzz=FuzzNonFinalSegmentDamage -fuzztime=30s ./internal/store
	$(GO) test -fuzz=FuzzFloodMatchesSequential -fuzztime=30s ./internal/engine

# The durability gate: checkpoint/resume trace equality on every engine
# and across each checkpoint family (± faults), the kill/restart service
# recovery drill, and the daemon's boot and shutdown order.
crash-recovery:
	$(GO) test -race -count=1 -run 'Checkpoint' ./internal/engine ./internal/job
	$(GO) test -race -count=1 ./internal/store ./internal/service
	$(GO) test -race -count=1 -run 'TestShutdown|TestBoot' ./cmd/anonnetd

# The chaos gate: 25 seeded kill/restart/corrupt iterations against the
# real store+service, plus the corruption-quarantine, dark-disk backfill
# and sync-failure suites under the race detector. Fully reproducible
# from the seed.
chaos:
	$(GO) run ./cmd/chaosdrill -iterations 25 -seed 1
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 -run 'Quarantine|GarbageLength|Backfill|SyncFail|Intercept' ./internal/store ./internal/service

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Regenerates the committed benchmark record with both sections the
# README quotes: the core ring sweep (seq, vec, parvec on the
# BenchmarkEngineRing workload) and the -scale large-n sweep. The
# service is measured end to end by perfbench (BENCHMARK.json).
benchreport:
	$(GO) run ./cmd/benchreport -scale -o BENCH_engine.json

run-daemon: build
	$(GO) run ./cmd/anonnetd -addr :8080

clean:
	$(GO) clean ./...
