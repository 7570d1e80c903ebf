# MEGA reproduction — common entry points.

GO ?= go

.PHONY: all check build vet test test-race race race-short chaos chaos-short dist-chaos shard-check dynamic-check load-check precision-check sparsify-check gates-check bench bench-compute bench-attention bench-dist bench-dynamic bench-serve bench-precision bench-sparsify fuzz fuzz-smoke experiments examples clean

all: check

# check is the full verification flow CI mirrors: compile, static
# analysis, the test suite, and the race detector over everything (the
# serve worker pool makes -race load-bearing).
check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector (slow, thorough).
race:
	$(GO) test -race ./...

# test-race is the quick scoped variant covering the concurrency-bearing
# packages only.
test-race:
	$(GO) test -race ./internal/dist/ ./internal/models/ ./internal/dynamic/ ./internal/serve/ ./cmd/megaserve/

# race-short is the PR-gating race pass: -short over the packages that
# exercise the compute worker pool (tensor kernels, engines, optimiser,
# trainer, server) plus the other concurrency-bearing packages. Full
# `make race` stays the push/nightly job.
race-short:
	$(GO) test -race -short ./internal/compute/ ./internal/tensor/ ./internal/nn/ ./internal/models/ ./internal/train/ ./internal/serve/ ./internal/dist/ ./internal/dynamic/

# chaos runs the fault-injection end-to-end harness (train → checkpoint →
# serve under injected faults) under the race detector with a fixed seed,
# writing the fault-point coverage log to chaos-report.log. chaos-short is
# the PR-sized variant CI runs.
chaos:
	CHAOS_REPORT=$(CURDIR)/chaos-report.log $(GO) test -race -run TestChaosEndToEnd -count=1 -v ./internal/serve/

chaos-short:
	CHAOS_REPORT=$(CURDIR)/chaos-report.log $(GO) test -race -short -run TestChaosEndToEnd -count=1 -v ./internal/serve/

# dist-chaos runs the process-level distributed chaos gate: real megashard
# worker processes (the test binary re-exec'd), a supervisor driving batches
# through them, and a SIGKILL delivered mid-batch. Asserts zero lost
# responses, bit-identical answers through replica failover, wire traffic
# exactly matching the analytical partition model, and the auto-restarted
# worker rejoining its group. The kill/failover event log lands in
# dist-chaos-report.log (the CI artifact).
dist-chaos:
	DIST_CHAOS_REPORT=$(CURDIR)/dist-chaos-report.log $(GO) test -race -run TestDistChaos -count=1 -v ./internal/dist/

# shard-check runs the shard-engine equivalence gates: the forward-only
# engine bit-identical to the single engine at every worker count (also
# with several engines and a plain forward sharing one model
# concurrently), observed-vs-analytical exchange traffic, and the sharded
# serving path.
shard-check:
	$(GO) test ./internal/models/ -run 'TestShard' -count=1
	$(GO) test ./internal/dist/ -run 'TestRunHaloExchange|TestAnalyzePathPartition' -count=1
	$(GO) test ./internal/serve/ -run 'TestShard' -count=1

# dynamic-check runs the mutation-subsystem gates: the differential fuzz
# corpus (maintained rep bit-identical to a from-scratch rebuild after
# random add/remove streams, including fused batches), prediction
# bit-identity through the monolithic and sharded engines, splice-vs-build
# equivalence, batch atomicity, and the serve /update end-to-end tests
# (session continuation, forking, eviction, error taxonomy).
dynamic-check:
	$(GO) test ./internal/dynamic/ -run 'TestPredictionBitIdentity|TestAdoptedRepPredictionIdentity|TestSpliceMatchesBuild|TestBatchAtomicity' -count=1
	$(GO) test ./internal/dynamic/ -run '^$$' -fuzz FuzzMaintainerEquivalence -fuzztime 10s
	$(GO) test ./internal/serve/ -run 'TestUpdate|TestMutatorPool' -count=1

# load-check runs the open-loop load-harness gates: the deterministic
# scheduler and autotuner unit tests, the short end-to-end load runs
# (real checkpointed server, faults armed, exact client-vs-/metrics
# reconciliation, zero lost responses), the mixed predict/update
# bit-identity test, and the megaload CLI smoke.
load-check:
	$(GO) test -short ./internal/load/ -count=1
	$(GO) test -short ./cmd/megaload/ -count=1
	$(GO) test ./internal/serve/ -run 'TestOptionsValidate|TestNewRejectsBadOptions|TestBatcher' -count=1

# precision-check runs the float32 fast-path gates: the SIMD kernels
# pinned bit-for-bit against their scalar references, the head-major f32
# attention kernels pinned bit-for-bit against a serial node-major
# reference at one and several threads, checkpoint downcast round-trips,
# the f32-vs-f64 differential suite under the ULP envelope, and the
# serve-side -precision f32 end-to-end tests (including degraded-mode
# fallback to float64).
precision-check:
	$(GO) test ./internal/tensor/ -run 'TestSIMDKernelsMatchReference|TestULPDistance32|TestMeasureDivergence|TestKernels32MatchF64|TestFusedSegmentAttention32MatchesF64|TestAttention32MatchesNodeMajorExactly' -count=1
	$(GO) test ./internal/models/ -run 'F32' -count=1
	$(GO) test ./internal/train/ -run 'TestCheckpointDowncast' -count=1
	$(GO) test ./internal/serve/ -run 'TestOptionsPrecisionValidate|TestPrecision' -count=1

# sparsify-check runs the effective-resistance sparsification gates: the
# scorer/sampler unit suite (bridge dominance, determinism across thread
# counts, salt independence of the drop and sparsify streams), traversal
# composition (drop+sparsify order bit-identity, independent streams,
# two-sided revisit bound, band shrinkage, options digest), the composite
# rep-cache key regression tests, the sharded-forward bit-identity suite
# over sparsified reps, and the dynamic-package rejection.
sparsify-check:
	$(GO) test ./internal/sparsify/ -count=1
	$(GO) test ./internal/traverse/ -run 'Sparsif|TestOptionsDigest' -count=1
	$(GO) test ./internal/serve/ -run 'TestRepCacheKeyCoversOptions|TestServerRepKeyIncludesSparsify|TestRepCache' -count=1
	$(GO) test ./internal/models/ -run 'Sparsified' -count=1
	$(GO) test ./internal/dynamic/ -run 'TestUnsupportedConfigurations' -count=1

# gates-check fails when any -run/-bench/-fuzz pattern above (or in the CI
# workflow) selects nothing in its package: `go test -run` passes silently
# on an empty match, so a renamed test would otherwise void its gate.
gates-check:
	bash scripts/gates-check.sh

# Benchmark records. Each BENCH_*.json in the repo root is regenerated by
# exactly one target below, on demand — never by `make test` or CI PR
# gates (numbers are machine-relative; every record carries its host):
#
#   BENCH_tensor.json     bench-compute    tensor kernels, f64 vs f32 fast path
#   BENCH_attention.json  bench-attention  fused kernels vs the staged test oracle
#   BENCH_dist.json       bench-dist       shard-parallel halo exchange at k ∈ {1,2,4}
#   BENCH_dynamic.json    bench-dynamic    incremental repair vs full re-preprocess
#   BENCH_serve.json      bench-serve      p99-SLO serving capacity autotune
#   BENCH_precision.json  bench-precision  serve-side f32-vs-f64 speedup + ULP envelope
#   BENCH_sparsify.json   bench-sparsify   effective-resistance keep-fraction matrix
#
# bench regenerates all of them.
bench: bench-compute bench-attention bench-dist bench-dynamic bench-serve bench-precision bench-sparsify

# bench-compute regenerates the tensor-kernel numbers recorded in
# BENCH_tensor.json: serial-vs-parallel float64 baselines plus the float32
# fast-path kernels, attention in its head-major scratch layout (fixed
# iteration count for comparable runs).
bench-compute:
	BENCH_TENSOR_OUT=$(CURDIR)/BENCH_tensor.json $(GO) test ./internal/tensor/ -run TestWriteBenchTensor -count=1 -v -benchtime 5x

# bench-attention regenerates the fused-vs-staged attention numbers
# recorded in BENCH_attention.json: the production fused kernels against
# the staged pipeline kept as a test-only oracle (fixed iteration count
# for comparable runs; -benchmem because allocation counts are half the
# claim).
bench-attention:
	$(GO) test ./internal/models/ -run '^$$' -bench 'Attention' -benchtime 20x -benchmem

# bench-dist regenerates the shard-parallel halo-exchange numbers recorded
# in BENCH_dist.json: one full sharded forward (real GT layers + halo /
# duplicate-sync / edge-fold exchange) at k ∈ {1, 2, 4} over the same
# 512-node workload, so the k-scaling of wall time and traffic is
# directly comparable.
bench-dist:
	$(GO) test ./internal/dist/ -run '^$$' -bench 'HaloExchange' -benchtime 3x -benchmem

# bench-dynamic regenerates the incremental-repair-vs-full-re-preprocess
# numbers recorded in BENCH_dynamic.json: ApplyBatch (fused prefix-replay /
# suffix-resume) against models.PrepareMega of the identical mutated graph,
# at batch sizes {1,2,4,8} under uniform and traversal-localized mutation
# mixes.
bench-dynamic:
	BENCH_DYNAMIC_OUT=$(CURDIR)/BENCH_dynamic.json $(GO) test ./internal/dynamic/ -run TestWriteBenchDynamic -count=1 -v

# bench-serve regenerates the serving-capacity numbers recorded in
# BENCH_serve.json: the open-loop capacity autotuner sweeps the micro-batch
# knob grid, bracket-searching each configuration for its max sustainable
# QPS under the p99 SLO, with client counts reconciled against /metrics at
# every probe. Numbers are machine-relative; the record carries the host.
bench-serve:
	$(GO) run ./cmd/megaload -autotune -slo-p99 25ms -probe-duration 2s \
		-start-rate 8 -tolerance 0.1 -out $(CURDIR)/BENCH_serve.json

# bench-precision regenerates the float32 fast-path numbers recorded in
# BENCH_precision.json: serve-side f32-vs-f64 throughput per workload
# class (interleaved min-of-chunks timing) and the measured
# ULP/relative-error divergence — asserted inside the envelope on every
# run, with the ≥1.5× acceptance bar on full runs. BENCH_PRECISION_FAST=1
# (the CI smoke) shrinks the timed rounds and skips the speedup bar.
bench-precision:
	BENCH_PRECISION_OUT=$(CURDIR)/BENCH_precision.json $(GO) test ./internal/serve/ -run TestWriteBenchPrecision -count=1 -v -timeout 30m

# bench-sparsify regenerates the effective-resistance sparsification
# matrix recorded in BENCH_sparsify.json: band half-width, revisits, path
# expansion, surviving edges, and simulated GTX1080 cycles per dataset ×
# keep fraction, plus the convergence shape at keep 0.5 vs unsparsified on
# ZINC. The keep-0.5 acceptance bar (band no wider, cycles strictly lower)
# and fixed-seed bit-reproducibility are asserted on every run.
# BENCH_SPARSIFY_FAST=1 (the CI smoke) shrinks the scale.
bench-sparsify:
	BENCH_SPARSIFY_OUT=$(CURDIR)/BENCH_sparsify.json $(GO) test ./internal/experiments/ -run TestWriteBenchSparsify -count=1 -v -timeout 30m

# Short fuzzing passes over the binary decoder, the traversal, and the
# graph hashes.
fuzz:
	$(GO) test ./internal/dist/ -fuzz FuzzWireRoundTrip -fuzztime 30s
	$(GO) test ./internal/band/ -fuzz FuzzReadRep -fuzztime 30s
	$(GO) test ./internal/band/ -fuzz FuzzTraverseRoundTrip -fuzztime 30s
	$(GO) test ./internal/graph/ -fuzz FuzzFingerprint -fuzztime 30s
	$(GO) test ./internal/traverse/ -fuzz FuzzTraverse -fuzztime 30s
	$(GO) test ./internal/traverse/ -fuzz FuzzSparsifiedTraverse -fuzztime 30s

# fuzz-smoke is the CI-sized pass: a few seconds per target, enough to
# catch regressions in the properties themselves.
fuzz-smoke:
	$(GO) test ./internal/dist/ -fuzz FuzzWireRoundTrip -fuzztime 5s
	$(GO) test ./internal/band/ -fuzz FuzzReadRep -fuzztime 5s
	$(GO) test ./internal/band/ -fuzz FuzzTraverseRoundTrip -fuzztime 5s
	$(GO) test ./internal/graph/ -fuzz FuzzFingerprint -fuzztime 5s
	$(GO) test ./internal/traverse/ -fuzz FuzzTraverse -fuzztime 5s
	$(GO) test ./internal/traverse/ -fuzz FuzzSparsifiedTraverse -fuzztime 5s

# Regenerate every paper table and figure at interactive scale.
experiments:
	$(GO) run ./cmd/megabench -scale medium

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/molecules -train 64 -epochs 3 -dim 32
	$(GO) run ./examples/isomorphism
	$(GO) run ./examples/distributed
	$(GO) run ./examples/streaming -n 1000 -updates 200

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
