# Tier-1 verification and developer loops. `make verify` is the full
# pre-merge gate: build + tests (shuffled, so order-dependent tests cannot
# hide), the same for the kernel packages with the assembly compiled out,
# static vetting, fedsu-lint, the race detector over every package, a short
# fuzz smoke over the wire codecs, the matmul driver and the element-wise and
# convert kernels, and the bench/ module's own vet and tests. Performance is
# measured by the BENCHMARK.json program (bench/) and compared with
# `make bench-pair`; the Benchmark* functions run under plain
# `go test -run xxx -bench`.

GO ?= go
FUZZTIME ?= 10s

.PHONY: tier1 vet lint race fuzz verify bench-check bench-pair tier1-purego \
	loc paper-smoke

tier1:
	$(GO) build ./...
	$(GO) test -shuffle=on ./...

# The Go lane: internal/tensor has two implementations of each kernel
# contract (DESIGN.md §5c) — the element-wise family the fold runs (AddTo,
# AddPair, AddPairTo, Scale), the training step's heads (ReLU's pair
# ReLUInto and ReLUGateInto, the 2×2/2 pool forward and backward, col2im's
# row add, the SGD update SGDUpdate) and the float64↔float32 trio the
# default wire converts on (NonzeroMask, NarrowLE, WidenLE) — AVX2 assembly
# and Go, and a runner with AVX2 never executes the second. The matmul tile
# has three, Go, AVX2 and AVX-512, and init picks the widest the CPU runs;
# internal/tensor's tile tests run every tile the host has (AVX-512 only on
# a host with it), but every other test runs the selected one, so only this
# lane runs the layers above on the Go tile. The
# purego tag compiles the assembly out, so the Go code carries the packages
# whose tests prove bit-identity (tensor: against the retired scalar kernels
# and a naive loop; nn, fl: across worker counts, replicas, topologies and
# transports; opt: SGD.Step against the retired two-pass update; sparse,
# flrpc: the codec against its per-bit and per-element references and its
# pinned payloads, TCP against in-process; core: Manager against the
# Algorithm 1 oracle, through the chain on the Go lane too).
tier1-purego:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego -shuffle=on ./internal/tensor/... ./internal/nn/... ./internal/opt/... ./internal/fl/... ./internal/sparse/... ./internal/core/... ./internal/flrpc/...

# Non-test line count, the ROADMAP's method: tracked .go and .s files
# minus _test.go, bench/ and testdata/. A simplicity PR states its line
# claim as this number before and after: `make loc BASE=<rev>` prints the
# count at <rev>, the tree's count and the delta.
LOC_FILTER = grep -v -e '_test\.go$$' -e '^bench/' -e 'testdata/'
loc:
ifneq ($(filter command line environment,$(origin BASE)),)
	@git rev-parse -q --verify '$(BASE)^{commit}' >/dev/null || { echo "loc: no commit $(BASE)" >&2; exit 1; }
	@base=$$(git ls-tree -r --name-only $(BASE) | grep -e '\.go$$' -e '\.s$$' | $(LOC_FILTER) | sed 's|^|$(BASE):|' | xargs -r git show | wc -l) && \
	tree=$$(git ls-files '*.go' '*.s' | $(LOC_FILTER) | xargs cat | wc -l) && \
	echo "base $(BASE): $$base" && echo "tree: $$tree" && echo "delta: $$((tree - base))"
else
	@git ls-files '*.go' '*.s' | $(LOC_FILTER) | xargs cat | wc -l
endif

# `go vet` includes asmdecl, which checks internal/tensor/kernel_amd64.s —
# the tile, the element-wise and convert heads, which take slices, and the
# mask word — against its Go declarations (argument offsets, frame sizes).
vet:
	$(GO) vet ./...

# Project-specific static analysis: the syntactic/type-based checks
# (ctxdispatch, determinism, errwrap; DESIGN.md §5e) plus the
# pairing and concurrency-discipline checks (pairing, lockhold, goleak,
# sharedmut; DESIGN.md §5j). Suppress a finding with
# `//lint:allow <analyzer> -- <reason>` on or above the offending line;
# the ` -- reason` part is mandatory.
lint:
	$(GO) run ./cmd/fedsu-lint ./...

# `./...` keeps both lanes current as packages grow: tier1 picks up new
# suites automatically, and the race lane hammers the
# deadline-expiry-vs-completion path (fl TestDeadlineExpiryRacesCompletion),
# a kept collective result under a recycling fleet (fl
# TestEscapedResultIsNeverRecycled), the TCP clients' free-running rounds
# (examples/tcp_cluster), and the internal/exp grid scheduler under the
# detector.
race:
	$(GO) test -race ./...

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
# over (shape, operand strides, seed), or one tile over random and
# overlapping offset tables, and holds every tile the host runs — the Go
# tile, AVX2, and AVX-512 only on a host with it — to a naive ordered sum; FuzzVecKernels drives the element-wise
# kernels — the fold's adds, Scale, the ReLU pair, the SGD update and
# col2im's row add — over (length, operand offsets, seed, operation, and the
# row add's row count, row width and strides) and holds the selected lane
# and the Go loops to a naive loop, NaN payloads included;
# FuzzConvertKernels does the same for the float64↔float32 trio over (length,
# offset, raw bit patterns) against v != 0, float32(v) and float64(f).
# FuzzLayerPasses drives the step passes — ReLU, MaxPool2D on both paths
# (the 2×2/2 forward and backward heads among them), and a whole Conv2D
# against its im2col lowering — over (NCHW shape, kernel,
# stride, pad, seed, raw bit patterns) against the retired loops
# (nn/passes_ref_test.go).
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
	$(GO) test -fuzz '^FuzzLayerPasses$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/nn/
	$(GO) test -fuzz '^FuzzAlgorithm1$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core/
	$(GO) test -fuzz '^FuzzCheckpointRead$$' -fuzztime=$(FUZZTIME) -run '^$$' ./internal/fl/

# bench/ is its own module (BENCHMARK.json's program), so `./...` above
# never compiles it: vet and test it here, or a refactor of fl/flrpc/sparse
# that breaks the benchmark's build or its output checks surfaces only in
# the benchmark pipeline.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

verify: tier1 tier1-purego vet lint race fuzz bench-check

# The paper's record is deterministic: fedsu-bench -exp
# all,popscale,compose runs twice at 2 rounds, and the two stdouts
# (minus the wall-clock footers and Table II's self-timing block) and the
# two -out directories must match (scripts/paper-smoke.sh). BIN=<binary>
# checks a prebuilt fedsu-bench instead of the working tree's.
BIN ?=
paper-smoke:
	bash scripts/paper-smoke.sh $(BIN)

# Paired before/after run of the BENCHMARK.json benchmark (choosing-metrics
# §8): PAIRS alternating pairs of BASE (unpacked with git archive under
# .bench_build/) and the working tree on one WORKLOAD — or, with
# WORKLOAD=all, on every workload back to back inside each pair — then per
# workload and metric the medians, quartiles and pairs won, and after every
# pair whether both sides ended on the same fingerprint. Pair i runs seed
# SEED0+i-1. ~1 min per pair and workload. The script builds both sides
# with -buildvcs=false itself.
BASE ?= HEAD
WORKLOAD ?= tcp_fedsu_chain
PAIRS ?= 10
SEED0 ?= 301
bench-pair:
	bash scripts/bench-pair.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED0)
