GO ?= go

.PHONY: all build vet test lint lint-alloc lint-alloc-baseline docs race race-determinism faults checkpoint fuzz optimize bench bench-optimize profile clean

all: build vet test lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static invariants: cmd/simlint proves the determinism and layering
# contracts (no map ranges or wall clock in deterministic packages — also
# interprocedurally, via the call-graph taint rule), switch
# exhaustiveness, the package DAG, dropped errors, and exact float
# compares, and checks every relative markdown link/anchor (the former
# cmd/mdlint). The gofmt check
# keeps the tree format-clean; vet runs first. See docs/LINT.md.
lint: vet
	$(GO) run ./cmd/simlint .
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# Hot-path allocation gate: parses `go build -gcflags=-m` escape output
# and fails when a //sim:hotpath function gains a heap allocation not in
# the checked-in baseline (internal/lint/hotalloc.baseline). The build
# cache replays compiler diagnostics, so repeat runs are cheap.
lint-alloc:
	$(GO) run ./cmd/simlint -alloc .

# Regenerate the hotalloc baseline after a deliberate change.
lint-alloc-baseline:
	$(GO) run ./cmd/simlint -alloc-update .

# Former name of the lint target, kept as an alias.
docs: lint

test:
	$(GO) test ./...

# Full suite under the race detector. Slow; it covers the runner pool,
# the table cache, and the reporter serialization. The explicit second
# line forces the simulator-core checks to re-run uncached: the
# stranded-work property scan, the dense-scan equivalence goldens (stop &
# go and, through the same switch pipeline, credits), the shared-table
# round-robin isolation, the results golden (every scheme x topology x
# faults x step loop pinned bit for bit), random parameter sets under
# both step loops, and the deadlock watchdog's report under both loops.
# The netsim package alone takes close to go test's 10-minute default
# timeout under -race on a 2-vCPU host, so both lines set their own.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -timeout 30m -count=1 -run 'ActiveSetNeverStrandsWork|ActiveSetMatchesDense|VCLoopEquivalence|SharedTableConcurrentRuns|ResultGolden|ConservationUnderRandomParams|DeadlockWatchdogFires' ./internal/netsim/

# The parallel-correctness core: byte-identical results across worker
# counts, single-flight table builds, and cancellation — all under -race.
race-determinism:
	$(GO) test -race -count=1 -run 'Determinism|TableCache|Reporter|Cancelled' ./internal/runner/
	$(GO) test -race -count=1 -run 'RunSpecDeterministicReplicas' .

# The fault-injection suite under the race detector: engine semantics and
# conservation (netsim), degraded-route property tests (faults), and the
# faulted determinism check — byte-identical results at -parallel 1 vs 8
# with a mid-run link failure and online reconfiguration (runner).
faults:
	$(GO) test -race -count=1 -run 'Fault|Fail|Degraded|StallDump' ./internal/netsim/ ./internal/faults/
	$(GO) test -race -count=1 -run 'FaultedDeterminism|SingleLinkFailureRecovery' ./internal/runner/

# The checkpoint/resume acceptance suite under the race detector: every
# snapshot and resume test (both step loops x faults byte-identical after
# a mid-run snapshot+restore), every restore refusal and FuzzRestore's
# seeds, the record round trip, the refusal of records written under
# another spec, the in-process mid-job interrupt, the re-run of a
# snapshot another format version wrote, and the end-to-end
# SIGKILL-and-resume test that kills a child sweep and requires the
# resumed report to match an uninterrupted run's JSON exactly. See
# docs/CHECKPOINT.md.
checkpoint:
	$(GO) test -race -count=1 -run 'Checkpoint|Snapshot|Resume|Restore' ./internal/netsim/
	$(GO) test -race -count=1 -run 'KillAndResume|ResumeMidJob|ResumeOtherFormatVersion|ResumeRejectsForeign|SweepJournalRoundTrip|PanicContained' ./internal/runner/

# Coverage-guided fuzzing, 15 s per target: the topology and route-table
# JSON decoders, checkpoint restore, the metrics histogram and collector
# codecs, the fault-plan parser and the -loads parser. CI does not fuzz: make test already replays every seed
# and every checked-in corpus under testdata/fuzz. The fuzzer writes a
# crashing input into its package's testdata/fuzz; check it in with the fix.
# FuzzRestore's inputs are whole mid-run snapshots of 100-350 KB, and at
# the default -fuzzminimizetime of 60 s its workers spend the run
# minimizing the first new input they find: two 15 s runs on a 2-vCPU
# host stalled at 14 and 1,962 execs, where a 2 s minimize time ran 5,088
# and 3,822 and found 15 new inputs each.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzTopologyDecode$$' -fuzztime 15s ./internal/topology/
	$(GO) test -run '^$$' -fuzz '^FuzzRoutesDecode$$' -fuzztime 15s ./internal/routes/
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/netsim/
	$(GO) test -run '^$$' -fuzz '^FuzzHistogramUnmarshal$$' -fuzztime 15s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzCollectorUnmarshal$$' -fuzztime 15s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 15s ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzParseLoads$$' -fuzztime 15s ./internal/cli/

# The route-optimizer suite under the race detector: the package-level
# property tests (invariants, determinism, deadlock freedom, escape
# pruning), the runner-level determinism matrix on optimized tables
# (-parallel 1 vs 8, optimizer + faults), the
# checkpoint table-fingerprint gate, and the optimized degraded-table
# reconfiguration tests. See docs/OPTIMIZE.md.
optimize:
	$(GO) test -race -count=1 ./internal/optimize/
	$(GO) test -race -count=1 -run 'Optimize' ./internal/runner/
	$(GO) test -race -count=1 -run 'RestoreRejectsDifferentTable' ./internal/netsim/
	$(GO) test -race -count=1 -run 'DegradedRoutingOptimized' ./internal/faults/
	$(GO) test -race -count=1 -run 'TableFingerprint' ./internal/routes/

# The performance benchmark (cmd/simbench, its own module; see
# cmd/simbench/README.md): every workload once at seed 1. It exits 1 when
# a table fingerprint or point digest differs from testdata/reference.json.
bench:
	bash cmd/simbench/run.sh -workload all -seed 1

# Congestion-aware route optimizer on the 8x8 torus under hotspot
# traffic (BenchmarkOptimizerGate): static vs optimized tables for UP/DOWN
# and ITB-RR, reporting saturation throughput and knee p99. Fails unless
# optimized ITB-RR's knee p99 is below 0.95x static ITB-RR's and below
# static UP/DOWN's, or when a reported value leaves its pinned one. About
# 6 s on a 2-vCPU host.
bench-optimize:
	$(GO) test -run '^$$' -bench '^BenchmarkOptimizerGate$$' -benchtime 1x .

# CPU + heap profile of a two-point sweep (one low-load point, one near
# saturation) via the -cpuprofile/-memprofile flags every tool accepts.
# Inspect with: $(GO) tool pprof cpu.pprof  (profiles are per-job labelled)
profile: build
	$(GO) run ./cmd/sweep -topo torus -scale medium -loads 0.002,0.014 \
		-parallel 1 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"

clean:
	$(GO) clean ./...
