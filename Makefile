# Convenience targets for the wtcp reproduction.

GO ?= go

.PHONY: all build vet test test-race check conformance golden-drift budget-smoke fleet-smoke serve-smoke scale-smoke scale-pins zoo-smoke pool-smoke pool-pins goldens bench bench-baseline bench-compare bench-smoke bench-scale bench-scale-baseline bench-e2e-smoke bench-e2e bench-ab figures traces report fuzz fuzz-smoke clean

all: build vet test

# Pre-PR gate: static analysis, the full suite under the race detector
# (the simulator is single-threaded by design; -race proves it), and what
# that run cannot cover: the golden-trace drift check, the allocation and
# heap pins that skip themselves under -race, and the measurement spine's
# output checks. Every test runs once: the named smoke targets below
# re-select tests `go test -race ./...` has just run, so `check` depends
# only on their parts that add something. CI runs each smoke target whole,
# in its own job.
check: vet test-race golden-drift scale-pins pool-pins bench-e2e-smoke

# Supervision gate: a tiny sweep with one pathological (livelocking)
# point under aggressive run budgets, with the worker pool and heartbeat
# exercised under -race. Asserts clean quarantine, partial results,
# checkpoint + status-file + repro-bundle plumbing; the checkpoint's
# format tests (refusals, a torn tail, adopting a version 1 file, resume
# after a torn append) ride along.
budget-smoke:
	$(GO) test -race -run 'TestBudgetSmoke|TestGovernedSweepQuarantinesPathologicalPoint|TestLedgerRefusesCorruptFiles|TestLedgerAdoptsVersion1|TestCheckpointResumeByteIdentical' ./internal/experiment/

# Fleet gate: a four-worker sharded campaign under -race with a
# chaos-injected SIGKILL of a live lease holder; asserts every point
# settles exactly once and the merged ledger is bit-identical to the
# sequential engine's output — plus the next-grant pins: a SIGKILL just
# after a result post under dropped, duplicated and delayed result
# posts, and a lost grant lapsing at its TTL.
fleet-smoke:
	$(GO) test -race -run 'TestFleetSmoke|TestWorkerSIGKILLUnderResultFaults|TestLostGrantLapsesAtTTL|TestResultPostCarriesIdempotentGrant' ./internal/fleet/

# Service gate: the wtcpd storm/drain acceptance test under -race — a
# seeded 50-request storm with chaos-injected malformed bodies and
# client disconnects against a 2-slot server, SIGTERM drain mid-storm,
# restart, and resume; asserts nothing lost, nothing double-run, finite
# Retry-After on rejects, byte-identical cache hits — plus the
# single-flight dedup test and the pins of the two on-disk stores: LRU
# order and the space rule against the slice model across many small
# segments, order and cap after a reopen, legacy-layout adoption, gets
# racing evictions and compaction, and the data-directory lock — and the
# sweep's borrowed slots: queued requests first, the same bytes at one
# and two slots, the first error in spec order.
serve-smoke:
	$(GO) test -race -run 'TestServeStormDrainResume|TestSingleFlightDeduplicatesConcurrentRequests|TestDiskCacheInterleavedOrder|TestDiskCacheReopenOrderAndCap|TestLegacyLayoutIsAdoptedOnce|TestDiskCacheGetsRaceMovesAndEvictions|TestTwoServersOnOneDirectoryFailByName|TestQueuedRequestBeatsBorrower|TestSweepSameBytesOnOneAndTwoSlots|TestSweepFirstErrorInSpecOrder' ./internal/serve/

# Cell-scale gate: the 1k-flow SLO, segment conservation under chaos
# loss/dup/reorder, the old-vs-new differential pin, and the pins
# behind the cell engine's bit-identity claims — sim's lazily seeded
# source against math/rand, the windowed fading timeline against the
# unbounded one and its cursor (and the cursor's interval bounds) against
# a plain search, the lane calendar
# against a sorted bag, the cached wheel minimum and the non-empty bitmap
# (with CSDP's one-verdict path) against the scans they replace, the
# pump's inline advance against one kernel event per instant (results,
# fired counts, budget and cancel errors; and the kernel's Advance
# against schedule-then-step), 2 000-flow runs against constants recorded
# before the calendar's head cache, the engine faults (an off-grid segment
# among them), the sampled conformance
# oracle (the only coverage of the path from a flow's shared-sender
# transitions to its checker) — all under -race; and scale-pins: without
# it, the steady-state zero-alloc pins (the race detector instruments
# allocation, making AllocsPerRun meaningless), the per-flow-channel 10k
# SLO (the cell_10k configuration under a 64 MB heap ceiling; the
# shared-channel SLOs cannot see per-channel set-up cost) and the
# calendar's slide-per-push reading on the same configuration.
scale-smoke: scale-pins
	$(GO) test -race -run 'TestCellSLO1k|TestArenaRefcountsUnderChaos|TestRunMatchesReferenceEngine|TestSourceMatchesMathRand|TestSourceRegisterEdge|TestWindowedMarkovEqualsUnbounded|TestCursorEqualsSearch|TestCursorBoundsEqualSearch|TestWheelMinMatchesScan|TestCalendarMatchesSortedReference|TestNextNonEmptyMatchesLinearScan|TestInlineAdvanceMatchesStepwise|TestManyFlowRunIsPinned|TestAdvanceDifferential|TestEngineFaultsFailClosed|TestOffGridTransmitFaults|TestRunNeverQueriesBelowTheWindow|TestOracleSampling|TestOracleSamplingDoesNotPerturb' ./internal/cell/ ./internal/sim/ ./internal/errmodel/

scale-pins:
	$(GO) test -run 'TestSteadyStateZeroAllocs|TestCellSLO10kPerFlow|TestCalendarArrivesAlmostSorted|TestSmallRunSetUpIsSmall|TestSourceSeedsOnlyWhatItReads' ./internal/cell/ ./internal/sim/

# Protocol-zoo gate, under -race: the Tahoe-profile refactor regression
# and cross-protocol metamorphic orderings, the snoop cache property
# grid and Tahoe/Reno differential pin, the streaming-oracle == replay
# differential over the zoo, the full variant x scheme study grid, and
# the split-connection oracle run.
zoo-smoke:
	$(GO) test -race -run 'TestTahoeProfileRegression|TestProfilePrefixes|TestGoodputOrderingUnderRandomLoss|TestSnoopAtLeastUnassistedBaseline' ./internal/oracle/
	$(GO) test -race -run 'TestSnoopPropertiesUnderChaos|TestSnoopChaosDeterminism|TestVariantsIdenticalWithoutLoss|TestTahoeRenoDivergeAtFastRetransmit|TestOracleOnSplitConnection|TestStreamingEqualsReplay' ./internal/core/
	$(GO) test -race -run 'TestZooStudyGrid' ./internal/experiment/
	$(GO) test -race -run 'TestLegacyGoldensSurviveZooRefactor' ./cmd/wtcp/

# Packet-lifetime gate, under -race: the pool property grid (chaos x
# seeds x schemes x presets: no lifetime fault, zero live packets after
# teardown, two identical runs equal), the pool-fault classification,
# the bounded-bookkeeping plateau and the heap high-water pin; and
# pool-pins: the warm-run and oracle allocation pins without it (the race
# detector instruments allocation, making AllocsPerRun meaningless).
pool-smoke: pool-pins
	$(GO) test -race -run 'TestPacketPoolUnderChaos|TestPoolFaultIsAProtocolBug|TestPerRunSetsPlateau|TestHeapHighWaterStaysSmall' ./internal/core/

pool-pins:
	$(GO) test -run 'TestWarmRunAllocs|TestOracleAllocs|TestOracleRetainsNothing' ./internal/core/

# Conformance gate: the oracle/trace/ARQ suites under -race, and
# golden-drift: the golden-trace drift check against the committed
# canonical scenarios.
conformance: golden-drift
	$(GO) test -race ./internal/oracle/... ./internal/trace/... ./internal/bs/...

golden-drift:
	$(GO) run ./cmd/wtcp conformance

# Regenerate the committed golden traces after an intended protocol
# change. Review the resulting diff like code — every changed line is a
# changed protocol event.
goldens:
	$(GO) run ./cmd/wtcp conformance -update

build:
	$(GO) build ./...

# Static analysis, formatting — gofmt prints the files it would change, and
# any name printed is a failure — and the run path's determinism rule: no
# non-test file of the packages a packet passes through declares a
# map-typed field or ranges over a map (internal/lint/nomap; DESIGN.md
# "Kernel data structures and the determinism contract").
RUN_PATH = internal/bs internal/ip internal/node internal/tcp internal/link internal/queue internal/sim internal/packet internal/oracle
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; }
	$(GO) run ./internal/lint/nomap $(RUN_PATH)

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Raw `go test -bench` output of the targets below lands under one ignored
# scratch directory, for `wtcp bench` to read.
SCRATCH ?= .scratch

# Full benchmark run.
bench:
	@mkdir -p $(SCRATCH)
	$(GO) test -run '^$$' -bench=. -benchmem . | tee $(SCRATCH)/bench.txt

# Re-record the committed kernel baseline from a full benchmark run.
# Run on a quiet machine; CI compares against this file.
bench-baseline: bench
	$(GO) run ./cmd/wtcp bench record -file BENCH_kernel.json -filter '^BenchmarkSim' -in $(SCRATCH)/bench.txt

# Compare a fresh full run against the committed baseline (>20% ns/op
# slowdown or any allocs/op increase on the kernel micro-benchmarks fails).
bench-compare: bench
	$(GO) run ./cmd/wtcp bench compare -file BENCH_kernel.json -in $(SCRATCH)/bench.txt

# CI-sized benchmark gate: short benchtime on the substrate
# micro-benchmarks only (BenchmarkSim*). End-to-end run benchmarks are
# excluded — shared-runner noise swamps them at short benchtime; the
# kernel micro-benchmarks are stable enough to gate on.
bench-smoke:
	@mkdir -p $(SCRATCH)
	$(GO) test -run '^$$' -bench 'BenchmarkSim' -benchmem -benchtime=0.2s -count=3 . | tee $(SCRATCH)/bench-smoke.txt
	$(GO) run ./cmd/wtcp bench compare -file BENCH_kernel.json -threshold 0.20 -in $(SCRATCH)/bench-smoke.txt

# Cell-scale benchmarks: per-stage hot-path micro-benchmarks plus
# end-to-end 1k/10k/50k cell runs, compared against the committed
# BENCH_scale.json (its stored filter selects ^BenchmarkCell; >35%
# ns/op slowdown or any allocs/op increase fails — the e2e runs are
# noisier than the kernel micro-benchmarks, hence the looser threshold).
bench-scale:
	@mkdir -p $(SCRATCH)
	$(GO) test -run '^$$' -bench '^BenchmarkCell' -benchmem -benchtime=0.5s ./internal/cell/ | tee $(SCRATCH)/bench-scale.txt
	$(GO) run ./cmd/wtcp bench compare -file BENCH_scale.json -threshold 0.35 -in $(SCRATCH)/bench-scale.txt

# Re-record the committed cell-scale baseline. Run on a quiet machine.
bench-scale-baseline:
	@mkdir -p $(SCRATCH)
	$(GO) test -run '^$$' -bench '^BenchmarkCell' -benchmem -benchtime=0.5s ./internal/cell/ | tee $(SCRATCH)/bench-scale.txt
	$(GO) run ./cmd/wtcp bench record -file BENCH_scale.json -filter '^BenchmarkCell' -note 'cell-scale engine baseline; regenerate with `make bench-scale-baseline`' -in $(SCRATCH)/bench-scale.txt

# Measurement-spine smoke (BENCHMARK.json, bench/): all four workloads
# at tiny sizes. Timing is meaningless at this size; what it gates is
# every output check — four-rung bit-identity of the WAN ladder,
# oracle-on == oracle-off over the protocol zoo, per-pass digests,
# byte-identical cache hits — from outside the packages.
bench-e2e-smoke:
	$(GO) run ./bench -workload all -smoke

# End-to-end comparison on this machine: record E2E_REPEAT complete sets
# of runs of the working tree into E2E_OUT, and, when E2E_BASE names the
# set.json of an earlier recording (typically the parent commit's, made
# with this same target in a checkout of it), print the per-metric
# verdicts and fail on any `worse`. About 3 minutes per set of all four
# workloads. E2E_WORKLOAD narrows the recording to one workload's
# untraced runs (lan_zoo: ~40 s each, so ten alternating pairs against a
# parent take minutes, not half an hour); the harness makes one run per
# call for a named workload and writes no set, so the recipe repeats the
# call and assembles set.json from the run records. For the cell engine
# (README "Performance", CHANGES.md PR 15) the recipe is
# `make bench-e2e E2E_WORKLOAD=cell_10k E2E_REPEAT=10` in a checkout of
# each commit (~30 s a run), the second with E2E_BASE naming the first's
# set.json; the reported pairs are the same runs (`sh bench/run.sh
# --workload cell_10k --seed 1 --seconds 20 --trace 0`) made alternately
# in the two checkouts.
E2E_REPEAT ?= 3
E2E_OUT ?= bench/out/e2e
E2E_WORKLOAD ?= all
bench-e2e:
ifeq ($(E2E_WORKLOAD),all)
	$(GO) run ./bench -workload all -repeat $(E2E_REPEAT) -out $(E2E_OUT)
else
	for i in $$(seq $(E2E_REPEAT)); do $(GO) run ./bench -workload $(E2E_WORKLOAD) -out $(E2E_OUT)/$$i || exit 1; done
	{ printf '{"runs":['; for i in $$(seq $(E2E_REPEAT)); do [ $$i -eq 1 ] || printf ','; cat $(E2E_OUT)/$$i/run-$(E2E_WORKLOAD)-*.json; done; printf ']}\n'; } > $(E2E_OUT)/set.json
endif
ifdef E2E_BASE
	$(GO) run ./bench -compare $(E2E_BASE) $(E2E_OUT)/set.json
endif

# Alternating base/change runs of one end-to-end workload, the check a
# performance claim needs (choosing-metrics: the change wins >= 9 of 10
# pairs and its median beats the base's by more than the base's
# interquartile range):
#
#   BASE=<rev> WORKLOAD=wan_ladder PAIRS=10 SEED=7 make bench-ab
#
# BASE's tree is exported under $(SCRATCH)/bench-ab/base (git archive:
# no worktree left registered in .git), ./bench is built from both trees,
# each run is made in its own tree with `-seconds 20 -trace 0`, odd pairs
# run the base first and even pairs the change, and `wtcp bench ab`
# prints each end-to-end metric's medians, quartiles, pairs won and the
# rule, then every pair. Under a minute a run for wan_ladder.
BASE ?= HEAD
WORKLOAD ?= wan_ladder
PAIRS ?= 10
SEED ?= 1
AB = $(CURDIR)/$(SCRATCH)/bench-ab
bench-ab:
	rm -rf $(AB) && mkdir -p $(AB)/base
	git archive $(BASE) | tar -x -C $(AB)/base
	cd $(AB)/base && GOTOOLCHAIN=local $(GO) build -o $(AB)/base-bench ./bench
	GOTOOLCHAIN=local $(GO) build -o $(AB)/change-bench ./bench
	for i in $$(seq $(PAIRS)); do \
		order="base change"; [ $$((i % 2)) -eq 1 ] || order="change base"; \
		for side in $$order; do \
			tree=$(CURDIR); [ $$side = change ] || tree=$(AB)/base; \
			(cd $$tree && $(AB)/$$side-bench -workload $(WORKLOAD) -seed $(SEED) -seconds 20 -trace 0 -out $(AB)/out-$$side) > $(AB)/run.txt \
				|| { cat $(AB)/run.txt; exit 1; }; \
			tail -n 1 $(AB)/run.txt >> $(AB)/$$side.jsonl; \
			echo "pair $$i $$side: $$(tail -n 1 $(AB)/run.txt)"; \
		done; \
	done
	$(GO) run ./cmd/wtcp bench ab -manifest BENCHMARK.json -base $(AB)/base.jsonl -change $(AB)/change.jsonl

# Regenerate every paper figure at publication fidelity.
figures:
	$(GO) run ./cmd/wtcp figures -fig all -reps 10

traces:
	$(GO) run ./cmd/wtcp trace -scheme basic
	$(GO) run ./cmd/wtcp trace -scheme localrecovery
	$(GO) run ./cmd/wtcp trace -scheme ebsn

# Rebuild REPLICATION.md from live runs (fails if any claim regresses).
report:
	$(GO) run ./cmd/wtcp report -reps 10 > REPLICATION.md

fuzz:
	$(GO) test -fuzz=FuzzReassembler -fuzztime=30s ./internal/ip
	$(GO) test -fuzz=FuzzSenderAckStream -fuzztime=30s ./internal/tcp
	$(GO) test -fuzz=FuzzScenario -fuzztime=30s ./internal/scenario
	$(GO) test -fuzz=FuzzRunRequest -fuzztime=30s ./internal/serve
	$(GO) test -fuzz=FuzzChaosParse -fuzztime=30s ./internal/chaos
	$(GO) test -fuzz=FuzzLedgerLoad -fuzztime=30s ./internal/experiment
	$(GO) test -fuzz=FuzzReproBundleLoad -fuzztime=30s ./internal/repro
	$(GO) test -fuzz=FuzzRecordLogScan -fuzztime=30s -fuzzminimizetime=1s ./internal/serve
	$(GO) test -fuzz=FuzzCalendarOrder -fuzztime=30s ./internal/cell
	$(GO) test -fuzz=FuzzTable -fuzztime=30s ./internal/queue
	$(GO) test -fuzz=FuzzKernelOps -fuzztime=30s ./internal/sim
	$(GO) test -fuzz=FuzzFleetBodies -fuzztime=30s ./internal/fleet
	$(GO) test -fuzz=FuzzBenchBaseline -fuzztime=30s ./cmd/wtcp
	$(GO) test -fuzz=FuzzBenchABRuns -fuzztime=30s ./cmd/wtcp
	$(GO) test -fuzz=FuzzMarkovQueries -fuzztime=30s ./internal/errmodel

# CI-sized fuzzing: ~10s per target, enough to catch regressions on the
# seeded corpora without stalling the pipeline. (FuzzRecordLogScan opens
# both wtcpd stores on every input, so its coverage is noisy and the
# fuzzer's default 60 s of minimising per "interesting" input would eat
# the whole budget; 1 s keeps it generating.)
fuzz-smoke:
	$(GO) test -fuzz=FuzzReassembler -fuzztime=10s ./internal/ip
	$(GO) test -fuzz=FuzzSenderAckStream -fuzztime=10s ./internal/tcp
	$(GO) test -fuzz=FuzzScenario -fuzztime=10s ./internal/scenario
	$(GO) test -fuzz=FuzzRunRequest -fuzztime=10s ./internal/serve
	$(GO) test -fuzz=FuzzChaosParse -fuzztime=10s ./internal/chaos
	$(GO) test -fuzz=FuzzLedgerLoad -fuzztime=10s ./internal/experiment
	$(GO) test -fuzz=FuzzReproBundleLoad -fuzztime=10s ./internal/repro
	$(GO) test -fuzz=FuzzRecordLogScan -fuzztime=10s -fuzzminimizetime=1s ./internal/serve
	$(GO) test -fuzz=FuzzCalendarOrder -fuzztime=10s ./internal/cell
	$(GO) test -fuzz=FuzzTable -fuzztime=10s ./internal/queue
	$(GO) test -fuzz=FuzzKernelOps -fuzztime=10s ./internal/sim
	$(GO) test -fuzz=FuzzFleetBodies -fuzztime=10s ./internal/fleet
	$(GO) test -fuzz=FuzzBenchBaseline -fuzztime=10s ./cmd/wtcp
	$(GO) test -fuzz=FuzzBenchABRuns -fuzztime=10s ./cmd/wtcp
	$(GO) test -fuzz=FuzzMarkovQueries -fuzztime=10s ./internal/errmodel

clean:
	$(GO) clean ./...
