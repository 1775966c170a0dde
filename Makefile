# Tier-1 verification and developer loops. `make verify` is the full
# pre-merge gate: build + tests (shuffled, so order-dependent tests cannot
# hide), the same for the kernel packages with the assembly compiled out,
# static vetting, fedsu-lint, the race detector over every package, a short
# fuzz smoke over the wire codecs, the matmul driver and the element-wise and
# convert kernels, and the bench/ module's own vet and tests.

GO ?= go
FUZZTIME ?= 10s

.PHONY: tier1 vet lint race fuzz verify bench bench-agg bench-grid \
	bench-tree bench-codec tier1-f32 race-f32 verify-f32 bench-check bench-pair \
	tier1-purego loc

tier1:
	$(GO) build ./...
	$(GO) test -shuffle=on ./...

# The Go lane: internal/tensor has two implementations of each kernel
# contract (DESIGN.md §5c) — the matmul tile, the element-wise family the
# fold runs (AddTo, AddPair, AddPairTo, Scale) and the float64↔float32 trio
# the default wire converts on (NonzeroMask, NarrowLE, WidenLE) — AVX2
# assembly and Go, and a runner with AVX2 never executes the second. The
# purego tag compiles the assembly out, so the Go code carries the packages
# whose tests prove bit-identity (tensor: against the retired scalar kernels
# and a naive loop; nn, fl: across worker counts, replicas, topologies and
# transports; sparse, flrpc: the codec against its per-bit and per-element
# references and its pinned payloads, TCP against in-process; core: Manager
# against the Algorithm 1 oracle, through the chain on the Go lane too).
tier1-purego:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego -shuffle=on ./internal/tensor/... ./internal/nn/... ./internal/fl/... ./internal/sparse/... ./internal/core/... ./internal/flrpc/...

# Non-test line count, the ROADMAP's method: tracked .go and .s files
# minus _test.go, bench/ and testdata/. A simplicity PR states its line
# claim as this number before and after.
loc:
	@git ls-files '*.go' '*.s' | grep -v -e '_test\.go$$' -e '^bench/' -e 'testdata/' | xargs cat | wc -l

# `go vet` includes asmdecl, which checks internal/tensor/kernel_amd64.s —
# the tile, the element-wise and convert heads, which take slices, and the
# mask word — against its Go declarations (argument offsets, frame sizes).
vet:
	$(GO) vet ./...

# Project-specific static analysis: the syntactic/type-based checks
# (ctxdispatch, determinism, errwrap, precision; DESIGN.md §5e) plus the
# pairing and concurrency-discipline checks (pairing, lockhold, goleak,
# sharedmut; DESIGN.md §5j). Suppress a finding with
# `//lint:allow <analyzer> -- <reason>` on or above the offending line;
# the ` -- reason` part is mandatory.
lint:
	$(GO) run ./cmd/fedsu-lint ./...

# `./...` keeps both lanes current as packages grow: tier1 picks up the
# async-mode suites (fl server/engine async, netem arrival processes,
# flrpc async wire) automatically, and the race lane hammers the
# deadline-expiry-vs-completion path, the async submit/apply interleaving
# (fl TestAsyncSubmitApplyRace, which also proves handed-out globals stay
# immutable), and the internal/exp grid scheduler under the detector.
race:
	$(GO) test -race ./...

# Float32 compute lane: the same tier-1 and race gates with the experiment
# suite's test helpers switched to the float32 kernel instantiation
# (FEDSU_DTYPE is read only by _test.go helpers, never by library code).
# The grid bit-identity proofs then run against the float32 path, with the
# FedSU managers in Quantize mode.
tier1-f32:
	$(GO) build ./...
	FEDSU_DTYPE=float32 $(GO) test -shuffle=on ./...

race-f32:
	FEDSU_DTYPE=float32 $(GO) test -race ./...

verify-f32: tier1-f32 race-f32

# Short fuzz smoke over the flrpc wire contract (the nil-vs-abstain-vs-empty
# property on the header flags, then raw bytes into the frame reader and
# both decoders behind it), the self-describing vector payload flrpc ships,
# the tier partial-aggregate message, the chain stages, and the base stage's
# word-wide bitmap decoder against its per-bit reference. `go test -fuzz`
# accepts one target per invocation, hence one run each. Seeds live in
# testdata/fuzz/ and f.Add. PR 18 added no target: FuzzEntropyStage now
# aims at tag 0x07 (and demands the retired-format error for 0x06),
# FuzzQuantStage checks the dense mode against the bitmap form. The last
# two targets are not wire codecs: FuzzMicroKernel drives the matmul driver
# over (shape, operand strides, seed) and holds the selected micro-kernel and
# the Go tile to a naive ordered sum; FuzzVecKernels drives the element-wise
# kernels over (length, operand offsets, seed, operation) and holds the
# selected lane and the Go loops to a naive loop, NaN payloads included;
# FuzzConvertKernels does the same for the float64↔float32 trio over (length,
# offset, raw bit patterns) against v != 0, float32(v) and float64(f).
# FuzzQuantStage also holds the block encoder and decoder to the per-element
# reference (quant_ref_test.go); FuzzAlgorithm1 drives core.Manager and the
# Algorithm 1 oracle (algorithm1_ref_test.go) over option sets and
# trajectories with raw bit patterns injected, and demands equal outputs and
# equal state after every round. FuzzCheckpointRead feeds raw bytes through
# ckpt.Read into fl.Engine.Restore and demands an error or an exact restore.
fuzz:
	$(GO) test -fuzz '^FuzzAggWire$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/flrpc/
	$(GO) test -fuzz '^FuzzFrame$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/flrpc/
	$(GO) test -fuzz '^FuzzVectorPayload$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sparse/
	$(GO) test -fuzz '^FuzzPartialPayload$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sparse/
	$(GO) test -fuzz '^FuzzQuantStage$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sparse/codec/
	$(GO) test -fuzz '^FuzzLowRankStage$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sparse/codec/
	$(GO) test -fuzz '^FuzzEntropyStage$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sparse/codec/
	$(GO) test -fuzz '^FuzzChainRoundTrip$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sparse/codec/
	$(GO) test -fuzz '^FuzzBaseWordVsScalar$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sparse/codec/
	$(GO) test -fuzz '^FuzzMicroKernel$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/tensor/
	$(GO) test -fuzz '^FuzzVecKernels$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/tensor/
	$(GO) test -fuzz '^FuzzConvertKernels$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/tensor/
	$(GO) test -fuzz '^FuzzAlgorithm1$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core/
	$(GO) test -fuzz '^FuzzCheckpointRead$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/fl/

# bench/ is its own module (BENCHMARK.json's program), so `./...` above
# never compiles it: vet and test it here, or a refactor of fl/flrpc/sparse
# that breaks the benchmark's build or its output checks surfaces only in
# the benchmark pipeline.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

verify: tier1 tier1-purego vet lint race fuzz bench-check

# Kernel and layer microbenchmarks (see BENCH_kernels.json for the tracked
# before/after numbers).
bench:
	$(GO) test ./internal/tensor/ ./internal/nn/ -run xxx -bench . -benchmem

# Aggregation hot-loop benchmarks (see BENCH_agg.json for the tracked
# before/after numbers): the fl.Server streaming collective fold and the
# pooled sparse vector wire codec. Take the median of the 3 counts.
bench-agg:
	$(GO) test ./internal/fl/ -run xxx -bench '^BenchmarkAggregate' -benchmem -count 3
	$(GO) test ./internal/sparse/ -run xxx -bench '^BenchmarkVectorPayload$$' -benchmem

# Hierarchical-aggregation benchmark (see BENCH_tree.json for the tracked
# medians): the root's per-round workload flat vs tree at equal
# participants — 1000-member cohort from 100k registered, fanout 8/32.
# Then the layer under it: the fold's element-wise kernels at 50k and 600k
# elements, destination L2-hot or drawn cold from a ring of 64, the selected
# lane ("asm") against the Go loops (EXPERIMENTS.md, "Fold at memory speed").
# Take the median of the 3 counts.
bench-tree:
	$(GO) test ./internal/fl/ -run xxx -bench '^BenchmarkTreeRootFold' -benchmem -count 3
	$(GO) test ./internal/tensor/ -run xxx -bench '^BenchmarkVecAdd$$' -count 3

# Compression-chain stage benchmarks (see BENCH_codec.json for the
# tracked medians): per-stage encode ns/op, B/op, and encoded bytes at
# densities 0.1%, 1%, 10%, and dense; then the base stage's encode and
# decode kernels at 600k parameters over dense and random masks
# (EXPERIMENTS.md, "Word-wide base kernels"); then the entropy stage's coder
# against the retired per-symbol reference (entropy_ref_test.go) on q4-upload
# and q8-reply shaped payloads (EXPERIMENTS.md, "Chain hot path"); the
# ChainCompact rows are a zero-free 51 200-value vector — quant mode 0x03, the
# form every core.Manager submission ships, which the "dense" rows never took
# (EXPERIMENTS.md, "A block at a time"). Take the median of the 3 counts.
bench-codec:
	$(GO) test ./internal/sparse/codec/ -run xxx -bench '^Benchmark(Chain|Base|Entropy)' -benchmem -count 3

# End-to-end harness benchmark: the Table I grid, sequential-uncached vs
# parallel-cached (the grid scheduler of internal/exp), medians over
# GRIDREPS reps per arm. Writes the measurement document to
# BENCH_grid.json (the tracked copy records the reference host). Tune with
# e.g. GRIDFLAGS='-rounds 12' for a shorter run.
GRIDREPS ?= 3
GRIDSLOTS ?= 4
GRIDFLAGS ?=
bench-grid:
	$(GO) run ./cmd/fedsu-bench -exp table1 -scale fast -parallel $(GRIDSLOTS) \
		-gridbench $(GRIDREPS) $(GRIDFLAGS) > BENCH_grid.json
	@cat BENCH_grid.json

# Paired before/after run of the BENCHMARK.json benchmark (choosing-metrics
# §8): PAIRS alternating pairs of BASE (unpacked with git archive under
# .bench_build/) and the working tree on one WORKLOAD — or, with
# WORKLOAD=all, on every workload back to back inside each pair — then per
# workload and metric the medians, quartiles and pairs won, and after every
# pair whether both sides ended on the same fingerprint. Pair i runs seed
# SEED0+i-1. ~1 min per pair and workload.
BASE ?= HEAD
WORKLOAD ?= tcp_fedsu_chain
PAIRS ?= 10
SEED0 ?= 301
bench-pair:
	bash scripts/bench-pair.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED0)
