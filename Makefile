# Targets mirror .github/workflows/ci.yml exactly, so local runs and CI
# cannot drift: CI calls these same targets, and `make ci` runs every
# gating job's targets in one go (the non-blocking bench job aside).

GO ?= go

.PHONY: build test race fuzz-smoke chaos cluster-chaos durability envelope bench bench-smoke bench-json fmt vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Each fuzz target of the race job, 20 s apiece: insert/delete/query
# interleaving, remapped engine rebuilds against fresh builds, the
# streaming fold's covering exit against the generic scan, SMM's phase
# invariants and SMM-EXT's delegate caps (each against its generic
# twin), the blocked distance kernels against the generic ones, the
# batch decoder and encoder and the snapshot codec against
# encoding/json, the engine's remote-clique and local-search solves
# against the generic path on tie-heavy inputs (matrix and tiled
# modes, 1-5 workers), and JL-projected selection quality. (FuzzTornTail runs
# in `make durability`.) make stops a recipe at its first failing line,
# so FuzzJLSelectionQuality, which fails on streams with fewer distinct
# points than k (see CHANGES.md), runs last, after every other target
# has had its 20 s.
fuzz-smoke:
	$(GO) test -run 'Fuzz' -fuzz=FuzzDeltaInterleaving -fuzztime=20s ./internal/server
	$(GO) test -run 'Fuzz' -fuzz=FuzzRebuildEngine -fuzztime=20s ./internal/sequential
	$(GO) test -run 'Fuzz' -fuzz=FuzzFoldTwins -fuzztime=20s ./internal/streamalg
	$(GO) test -run 'Fuzz' -fuzz=FuzzSMMInvariants -fuzztime=20s ./internal/streamalg
	$(GO) test -run 'Fuzz' -fuzz=FuzzSMMExtDelegateCaps -fuzztime=20s ./internal/streamalg
	$(GO) test -run 'Fuzz' -fuzz=FuzzBlockedVsGenericSqDist -fuzztime=20s ./internal/metric
	$(GO) test -run 'Fuzz' -fuzz=FuzzPointsDecode -fuzztime=20s ./internal/api
	$(GO) test -run 'Fuzz' -fuzz=FuzzSnapshotCodec -fuzztime=20s ./internal/api
	$(GO) test -run 'Fuzz' -fuzz=FuzzEngineParallelTiledEquivalence -fuzztime=20s ./internal/sequential
	$(GO) test -run 'Fuzz' -fuzz=FuzzJLSelectionQuality -fuzztime=20s ./internal/server

# The fault-injection suites under the race detector: shard panics and
# supervised restarts, restart-budget exhaustion, wedged shards shedding
# and recovering, dropped replies hitting deadlines, degraded queries,
# and the durability crash suite (torn WAL appends and checkpoints,
# corrupt tails, crash-shaped restarts) — with per-test goroutine-leak
# checks. The timeout guards against a supervision bug wedging the run
# rather than failing it.
chaos:
	$(GO) test -race -timeout 120s ./internal/faults ./internal/server ./internal/wal

# The multi-node coordinator tier under the race detector: worker kill /
# restart with WAL replay and bit-identical recovery against an
# uninterrupted twin, flaky links answered by hedging, rate-limited
# workers backed off without starving ingest, quorum fail-closed
# behavior, and the retry/backoff schedule — with per-test
# goroutine-leak checks.
cluster-chaos:
	$(GO) test -race -timeout 180s ./internal/cluster ./internal/faults

# The crash-recovery paths with the strictest fsync policy forced onto
# every WAL, so the durability contract is exercised with a real fsync
# per record, not just the test default; then 20 s of fuzzing over torn
# WAL tails (arbitrary truncation and byte damage must never panic
# recovery and must keep every record before the damage).
durability:
	DIVMAX_TEST_FSYNC=always $(GO) test -race -timeout 120s -run 'Durable|Graceful|AbruptClose|CheckpointTicker|CloseTimeout|Crash|Corrupt' ./internal/server ./internal/faults
	$(GO) test -run 'Fuzz' -fuzz=FuzzTornTail -fuzztime=20s ./internal/wal

# The envelope-equivalence harness that pins the blocked kernel tier:
# blocked-vs-generic distances within the documented error bound (bit-
# identical below metric.BlockedMinDim and on integer grids), position-
# independent sub-range fills, and identical GMM/SMM/engine selections.
# Run twice — once with the toolchain default microarchitecture level
# and once pinned to GOAMD64=v1 — so a codegen difference between FMA-
# capable and baseline targets cannot silently change the tier's
# results. (On non-amd64 hosts the pinned run is a no-op repeat: the
# variable is ignored, which is exactly the intended "no worse than
# default" behavior.)
envelope:
	$(GO) test -run 'TestEnvelope' -count=1 ./internal/metric
	GOAMD64=v1 $(GO) test -run 'TestEnvelope' -count=1 ./internal/metric

# Run every benchmark once (no timing comparisons) so bench code keeps
# compiling and running.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Build the end-to-end benchmark (divmaxbench/, its own module) and run
# its tests, which include a 1 s traced run of every workload against
# real divmaxd processes (about 25 s). The benchmark imports internal
# APIs — the solve engine, the api types, server.Config and
# cluster.Config fields — so a refactor that renames one breaks it here
# instead of silently.
bench-smoke:
	cd divmaxbench && $(GO) test ./...

# Regenerate the performance trajectory (BENCH_PR10.json): GMM fast vs
# pre-PR-2 generic (plus the blocked-tier high-dimensional rows vs the
# four-lane scalar kernel on clustered data), SMM ingest, the round-2
# solve path (matrix-mode engine vs generic), cached vs cold /query,
# the sharded/tiled solve-parallel worker sweep (now with
# d ∈ {128, 512} rows through the blocked fill), the
# incremental_ingest churn suite (delta-patched cache vs forced full
# rebuilds), the dynamic_churn insert/delete/query interleave over the
# /v1 API at d ∈ {8, 128, 512}, the overload write-storm (load shedding
# on vs off), the durability suite (WAL fsync overhead, checkpoint vs
# cold-replay recovery), and the cluster suite (the coordinator tier
# healthy vs a flaky worker link, hedging off vs on). CI uploads the
# JSON as an artifact alongside the committed BENCH_PR*.json baselines.
bench-json:
	$(GO) run ./cmd/bench -out BENCH_PR10.json

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# fuzz-smoke runs last: make stops at its first failing target, and
# fuzz-smoke's own last step, FuzzJLSelectionQuality, fails on streams
# with fewer distinct points than k (see CHANGES.md).
ci: fmt vet build test race chaos cluster-chaos durability envelope bench-smoke fuzz-smoke
