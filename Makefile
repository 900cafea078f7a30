# trafficdiff build targets.

GO ?= go

.PHONY: all build test vet lint lint-fast race bench serve-smoke cluster-smoke load-smoke resume-smoke verify-determinism fuzz experiments examples clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet plus the project's own tracelint pass — all
# nine analyzers (determinism, concurrency, wall-clock, hot-path
# allocations) run in parallel over one shared type-checked load. The
# run fails on any finding not recorded in the committed baseline, and
# always writes the machine-readable report (CI uploads it as an
# artifact). See DESIGN.md "Static analysis & determinism invariants".
lint: vet
	$(GO) run ./cmd/tracelint -baseline .tracelint-baseline.json -out tracelint-findings.json

# Quick pre-commit loop: skip go vet and the module-wide call-graph
# analyzer (hotalloc dominates single-package edits the least but costs
# the most), keep everything per-package.
lint-fast:
	$(GO) run ./cmd/tracelint -disable hotalloc -baseline .tracelint-baseline.json

test:
	$(GO) test ./...

# Race-detector pass over every package; the concurrency in
# internal/rf (and anything the ROADMAP adds) must stay clean.
race:
	$(GO) test -race ./...

# The benchmark harness (bench/, run by BENCHMARK.json): every workload
# end to end plus the per-layer probes. See bench/README.md for flags.
bench:
	bash bench/run.sh

# Serving smoke test over the real binaries: tracegen -save writes a
# checkpoint, traced serves it, a request at tracegen's logged seed
# returns tracegen's pcap byte for byte, concurrent clients get valid +
# seeded byte-identical pcaps, overload gets 429, and SIGTERM drains
# cleanly.
serve-smoke:
	$(GO) test -run TestServeEndToEnd -count=1 -v .

# Cluster smoke test over the real binaries: tracerouter spreads load
# across two traced replicas, serves a repeat seeded request from its
# content-addressed cache byte-identically, survives a replica kill
# with no 5xx leaked past the status-mapping table, and drains cleanly
# (exit 0) on SIGTERM; without -replicas it refuses to start.
cluster-smoke:
	$(GO) test -run TestClusterEndToEnd -count=1 -v .

# Load-harness smoke test over the real binaries: tracegen -save
# writes a checkpoint, traced serves it, and traceload drives the
# two-client example spec against it open-loop — the report must
# reconcile against the server's /metrics counters with zero
# unexplained 5xx/transport failures.
load-smoke:
	$(GO) test -run TestLoadEndToEnd -count=1 -v .

# Crash-safety smoke test over the real binary: tracegen is SIGKILLed
# after its first mid-run training checkpoint, restarted with -resume,
# and must emit synthetic pcaps byte-identical to an uninterrupted run.
resume-smoke:
	$(GO) test -run TestResumeEndToEnd -count=1 -v .

# End-to-end determinism guard: every seeded experiment (Table 2,
# Figures 1-2, the per-class GAN and the fidelity study) must print
# byte-identical output at smoke sizes at GOMAXPROCS=1 and
# GOMAXPROCS=4, with a byte-identical Figure 2 PNG, a 200-flow offline
# call (dealt in pieces of at most 16 flows, as many per step loop, so
# 13 pieces on one loop and 14 or 16 on more) must write the same pcap
# at both, and again with the
# host's FMA hidden from the runtime (GODEBUG=cpu.fma=off moves the bits
# of math.Exp and friends on amd64; the golden digests must not move), the
# kill-at-step-k resume property must hold across every combination of
# kill step, batch size and trained set (whole model or LoRA adapters), the
# helper pool and everything dispatched through it (kernels, each A·Bᵀ
# tile also with the 16-lane AVX-512 tile switched off, row-wise
# ops, the fused adapter epilogue, an arena that no longer zeroes) must
# match their serial references, and the
# sampler must be bit-identical to its oracles: the shared-trunk split
# forward against plain forward pairs and the batch-1 reference loop,
# and seeded and edit output against golden digests recorded on older
# commits (the only check that sees a change the in-binary oracles
# share). The non-Linux build (weights on the heap, not in mappings of
# their own) must compile. Last, the arm64 listing of internal/ must
# hold no fused multiply-add: Go may fuse a*b+c there (amd64 never
# does), which rounds once and moves bits, so every such site rounds
# its product with an explicit conversion.
verify-determinism:
	$(GO) build -o /tmp/traceval-det ./cmd/traceval
	GOMAXPROCS=1 /tmp/traceval-det -fast -train 6 -test 3 -synth 3 -out /tmp/det_fig2.png table2 fig1a fig1b fig2 perclass-gan fidelity > /tmp/det_p1.txt
	cp /tmp/det_fig2.png /tmp/det_fig2_p1.png
	GOMAXPROCS=4 /tmp/traceval-det -fast -train 6 -test 3 -synth 3 -out /tmp/det_fig2.png table2 fig1a fig1b fig2 perclass-gan fidelity > /tmp/det_p4.txt
	diff /tmp/det_p1.txt /tmp/det_p4.txt
	cmp /tmp/det_fig2_p1.png /tmp/det_fig2.png
	@echo "determinism OK: GOMAXPROCS=1 and 4 outputs and Figure 2 PNGs identical"
	$(GO) build -o /tmp/tracegen-det ./cmd/tracegen
	GOMAXPROCS=1 /tmp/tracegen-det -classes amazon -train 4 -steps 60 -rows 16 -write-real=false -per-class 200 -out /tmp/det_gen_p1
	GOMAXPROCS=4 /tmp/tracegen-det -classes amazon -train 4 -steps 60 -rows 16 -write-real=false -per-class 200 -out /tmp/det_gen_p4
	cmp /tmp/det_gen_p1/synthetic_amazon.pcap /tmp/det_gen_p4/synthetic_amazon.pcap
	@echo "determinism OK: a 200-flow offline call split into 16-flow pieces writes the same pcap at GOMAXPROCS=1 and 4"
	GODEBUG=cpu.fma=off $(GO) test -run 'TestGolden' -count=1 ./internal/core ./internal/diffusion ./internal/lora ./internal/gan && GODEBUG=cpu.fma=off GOMAXPROCS=1 /tmp/traceval-det -fast -train 6 -test 3 -synth 3 -out /tmp/det_fig2.png table2 fig1a fig1b fig2 perclass-gan fidelity > /tmp/det_nofma.txt && diff /tmp/det_p1.txt /tmp/det_nofma.txt && cmp /tmp/det_fig2_p1.png /tmp/det_fig2.png
	@echo "determinism OK: golden digests, outputs and Figure 2 PNG identical with the host's FMA switched off"
	$(GO) test -run 'TestTrainerResumeBitIdentity' -count=1 ./internal/diffusion
	$(GO) test -run 'TestFineTuneResumeEquivalence|TestCheckpointedTrainingMatchesPlain' -count=1 ./internal/core
	@echo "determinism OK: resumed training is bit-identical to uninterrupted training"
	$(GO) test -run 'TestPool|TestKernelsIdenticalAcrossWorkerCounts|TestABT|FuzzABT|TestWithoutAVX512|TestRowOps|FuzzRowOps' -count=1 ./internal/tensor
	$(GO) test -run 'TestRowOpsIdenticalAcrossWorkerCounts|TestArenaReuseWithoutZeroingIsInvisible|TestAddScaledMatchesScaleThenAdd|TestAddRepeatMatchesAddOfStackedRows|TestLinearBackwardMatchesLoops|TestHoldFrozenTransposesOnce' -count=1 ./internal/nn
	@echo "determinism OK: pooled dispatch, all four A·Bᵀ loops (each counted as run, and again with AVX-512 switched off), the vector row-wise ops, row-sharded ops, un-zeroed arena, the fused adapter epilogue, the shared-row add and Linear's backward on the A·Bᵀ kernel are bit-identical"
	$(GO) test -run 'TestBatchedMatchesLegacy|TestSchedulerChurnBitIdentity|TestBatchCompositionInvariance|TestSchedulerSplitStepWork|TestSchedulerControlProjectedPerDistinctImage|TestGoldenEditDigests' -count=1 ./internal/diffusion
	$(GO) test -run 'TestSplitForwardMatchesPlainPair|TestSplitSchedulerMatchesLegacy|TestGoldenSampleDigests|TestGoldenWithoutAVX512|TestAdapterApplyMatchesScaleAddComposition' -count=1 ./internal/lora
	$(GO) test -run 'TestGoldenSeededDigests|TestGoldenEditDigests|TestGoldenWithoutAVX512|TestGenerateReplaysAsSeeded|TestLoadCoversEveryParameter|TestLoadPreRemovalCheckpoints' -count=1 ./internal/core
	@echo "determinism OK: split forward, scheduler and golden digests are bit-identical; unseeded calls replay from their root"
	$(GO) test -tags purego -count=1 ./internal/tensor ./internal/diffusion ./internal/lora ./internal/core ./internal/gan
	GOARCH=arm64 $(GO) build ./...
	GOOS=windows $(GO) build ./...
	GOARCH=arm64 $(GO) build -gcflags=-S ./internal/... 2>&1 | awk '/STEXT/ {fn = $$1} /\tF(N)?M(ADD|SUB)[SD]?\t/ {print "fused multiply-add in " fn; bad = 1} END {exit bad}'
	@echo "determinism OK: the portable kernel alone (-tags purego) passes the same tests and golden digests; arm64 builds with no fused multiply-add in internal/; the non-Linux weight storage builds"

# Short fuzzing pass over the binary-format decoders, the checkpoint
# loader and the training-checkpoint resume path, the CSV writer, the A·Bᵀ tiles and the
# row-wise kernels (assembly that loads and stores by computed offset), the workload-spec parser, the generate
# handler's request body and the router's readiness-probe body.
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 15s -fuzzminimizetime 1s ./internal/packet
	$(GO) test -fuzz FuzzReader -fuzztime 15s -fuzzminimizetime 1s ./internal/pcap
	$(GO) test -fuzz FuzzDecodeRow -fuzztime 15s -fuzzminimizetime 1s ./internal/nprint
	$(GO) test -fuzz FuzzReadCSV -fuzztime 15s -fuzzminimizetime 1s ./internal/nprint
	$(GO) test -fuzz FuzzWriteCSV -fuzztime 15s -fuzzminimizetime 1s ./internal/nprint
	$(GO) test -fuzz FuzzLoad -fuzztime 15s -fuzzminimizetime 1s ./internal/core
	$(GO) test -fuzz FuzzTrainCheckpoint -fuzztime 15s -fuzzminimizetime 1s ./internal/core
	$(GO) test -fuzz FuzzABTTiles -fuzztime 15s -fuzzminimizetime 1s ./internal/tensor
	$(GO) test -fuzz FuzzRowOps -fuzztime 15s -fuzzminimizetime 1s ./internal/tensor
	$(GO) test -fuzz FuzzParseSpec -fuzztime 15s -fuzzminimizetime 1s ./internal/load
	$(GO) test -fuzz FuzzGenerateRequest -fuzztime 15s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -fuzz FuzzReadyStatus -fuzztime 15s -fuzzminimizetime 1s ./internal/cluster

# Regenerate every paper table and figure, then the design-choice
# ablations, into the recorded run log.
experiments:
	$(GO) run ./cmd/traceval -train 40 -test 12 -synth 12 all ablate > experiments_run.txt

# The API examples. Paper tables and figures come from `make experiments`.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/replay
	$(GO) run ./examples/foundation

clean:
	rm -f fig2_amazon.png synthetic_*.pcap
