# Development targets, kept in lockstep with .github/workflows/ci.yml:
# `make ci` runs exactly the checks CI runs, except the kernels job's AVX2
# leg (a GOAMD64=v3 build, which needs a v3 CPU to run and so stays
# CI-only).

GO ?= go

# Benchmarks whose B/op and allocs/op we track across PRs: the end-to-end
# solvers, the codec/stream data plane, and the word-parallel observe-plane
# kernels (run-based Observe, exact sub-solve, and the bit-sliced grid
# kernel under each dispatch body). The solver pattern is spelled out so
# the replay legs (BenchmarkSolveFileReplay) stay in BENCH_replay.json only.
BENCH_PATTERN ?= BenchmarkSolve(SetCover|MaxCoverage)|BenchmarkGreedySetCover|BenchmarkCodec|BenchmarkStream|BenchmarkObserveRuns|BenchmarkExactSubsolve|BenchmarkGridAndCountRuns
# Packages holding tracked benchmarks (the root API plus the internal hot
# paths the observe-plane benchmarks live next to).
BENCH_PKGS ?= . ./internal/bitset ./internal/core ./internal/offline
BENCH_JSON ?= BENCH_masks.json
# The committed baseline the bench-compare target diffs against (recorded
# by the CSR data-plane PR, before the word-parallel observe plane).
BENCH_BASELINE ?= BENCH_csr.json
# The pre-bit-slicing recording (per-guess strided probe loops), frozen. It
# was not recorded on the same machine as BENCH_JSON (their cpu lines and
# dates differ), so only the allocs/op columns of the grid-kernel delta
# artifact compare; its ns/op columns mix a box change with the code change.
BENCH_GRID_BASELINE ?= BENCH_masks_scalar.json

# Dataset-plane load benchmarks: decoding SCB1 vs mmap-opening SCB2 (the
# zero-copy path must stay allocation-O(1) in instance size).
DATASET_BENCH_PATTERN ?= BenchmarkLoad
DATASET_BENCH_JSON ?= BENCH_datasets.json

# Replay-plane benchmarks: multi-pass file solves served from a replay
# plan — warm (on: plan reused across solves, as coverd does) and cold
# (cold: load + plan + solve per iteration, as one covercli -replay run
# does) — vs honest per-pass re-decoding (off), plus the isolated per-pass
# stream cost (see DESIGN.md §2.8).
REPLAY_BENCH_PATTERN ?= BenchmarkSolveFileReplay|BenchmarkPassOverhead
REPLAY_BENCH_JSON ?= BENCH_replay.json
# The frozen recording from the PR that introduced the replay plane,
# the committed reference bench-compare diffs fresh recordings against
# (frozen, as BENCH_masks_scalar.json is for the grid kernels).
REPLAY_BENCH_BASELINE ?= BENCH_replay_base.json

# Observability-plane benchmarks: the same scheduler solve with the request
# tracing plane on and off. The on/off delta is the plane's whole cost and
# must stay negligible against the solve itself (the zero-perturbation
# rule, DESIGN.md §3.5).
OBS_BENCH_PATTERN ?= BenchmarkSolveTracing
OBS_BENCH_JSON ?= BENCH_obs.json

.PHONY: all fmt fmt-check vet vet-cross build test test-scalar perfbench-check bench bench-json bench-compare serve-smoke import-smoke ci

all: build

## fmt: rewrite all Go files with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file needs gofmt (what CI runs)
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## vet: static analysis
vet:
	$(GO) vet ./...

## vet-cross: vet every package for darwin/arm64, freebsd/amd64,
## windows/amd64 and linux/arm64, so the build-tagged fallbacks a
## linux/amd64 build never compiles (grid_kernel_other.go, mmap_other.go,
## madvise_other.go) are type-checked too
vet-cross:
	@fail=0; for p in darwin/arm64 freebsd/amd64 windows/amd64 linux/arm64; do \
		echo "go vet ./... on $$p"; \
		GOOS=$${p%/*} GOARCH=$${p#*/} $(GO) vet ./... || fail=1; \
	done; exit $$fail

## build: compile every package and command
build:
	$(GO) build ./...

## test: full test suite under the race detector
test:
	$(GO) test -race ./...

## test-scalar: the kernels job's scalar leg — the race suite on a
## baseline x86-64 build with the SIMD grid kernel switched off, so the
## conformance matrix checks the scalar kernel body end to end
test-scalar:
	GOAMD64=v1 STREAMCOVER_KERNEL=scalar $(GO) test -race ./...

## perfbench-check: vet and test the nested perfbench module, which the
## root ./... patterns skip although it calls the driver and solver APIs
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## bench: benchmark smoke — every benchmark once, no timing rigor
bench:
	$(GO) test -bench=. -benchtime=1x ./...

## bench-json: solver + data-plane benchmarks with allocation stats,
## recorded as go-test JSON event streams for cross-PR tracking (the
## dataset recording tracks instance load time: SCB1 decode vs SCB2 mmap)
bench-json:
	$(GO) test -json -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) > $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"
	$(GO) test -json -run '^$$' -bench '$(DATASET_BENCH_PATTERN)' -benchmem ./internal/setsystem > $(DATASET_BENCH_JSON)
	@echo "wrote $(DATASET_BENCH_JSON)"
	$(GO) test -json -run '^$$' -bench '$(REPLAY_BENCH_PATTERN)' -benchmem . > $(REPLAY_BENCH_JSON)
	@echo "wrote $(REPLAY_BENCH_JSON)"
	$(GO) test -json -run '^$$' -bench '$(OBS_BENCH_PATTERN)' -benchmem ./internal/service > $(OBS_BENCH_JSON)
	@echo "wrote $(OBS_BENCH_JSON)"

## bench-compare: diff the fresh recording against the committed baselines
## (informational; never fails on a regression). bench-delta.txt tracks the
## long-running CSR baseline; bench-delta-grid.txt isolates the bit-sliced
## grid kernels against the pre-bit-slicing per-guess recording;
## bench-delta-replay.txt tracks the replay serving legs against the
## recording frozen when the replay plane landed.
bench-compare: bench-json
	$(GO) run ./cmd/benchcmp $(BENCH_BASELINE) $(BENCH_JSON) | tee bench-delta.txt
	$(GO) run ./cmd/benchcmp $(BENCH_GRID_BASELINE) $(BENCH_JSON) | tee bench-delta-grid.txt
	$(GO) run ./cmd/benchcmp $(REPLAY_BENCH_BASELINE) $(REPLAY_BENCH_JSON) | tee bench-delta-replay.txt

## serve-smoke: end-to-end coverd check — start the daemon on a random
## port, upload a hardgen instance, solve it remotely with every solver ×
## arrival order covercli reaches and diff each against the local run,
## diff the honest file-streamed run and covercli -replay on SCB1, SCB2 and
## text copies against it, require both to reject a text copy with its set
## lines reversed, require covercli -trace to keep stdout and print the
## same pass record locally (-replay) and remotely, verify cache/dedup
## stats, check the /metrics exposition parses and its counters move
## across a solve, pin traceparent propagation end to end (job snapshot
## and its one pass record, access log, flight recorder, debug
## endpoints), require -alpha 0 to match and out-of-range -alpha/-eps to
## exit 2 on both paths, and confirm a clean SIGTERM shutdown
serve-smoke:
	bash scripts/serve_smoke.sh

## import-smoke: end-to-end dataset-plane check — coverimport each
## checked-in fixture to SCB2, preload into coverd via -load (mmap),
## solve locally + remotely, diff against the pinned goldens, and verify
## the mapped/heap accounting split in /v1/stats
import-smoke:
	bash scripts/import_smoke.sh

## ci: the full CI sequence, locally
ci: fmt-check vet vet-cross build test test-scalar perfbench-check bench bench-json bench-compare serve-smoke import-smoke
