GO ?= go

.PHONY: all build vet test lint lint-alloc lint-alloc-baseline docs race race-determinism faults checkpoint optimize bench bench-lowload bench-shards bench-vc bench-optimize profile clean

all: build vet test lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static invariants: cmd/simlint proves the determinism and layering
# contracts (no map ranges or wall clock in deterministic packages — also
# interprocedurally, via the call-graph taint rule), shard-safety of the
# worker phases, checkpoint field coverage, switch exhaustiveness, the
# package DAG, dropped errors, and exact float compares, and checks every
# relative markdown link/anchor (the former cmd/mdlint). The gofmt check
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

# Full suite under the race detector. Slow; beyond the runner pool,
# the table cache, and the reporter serialization this now also covers
# the shard workers stepping one simulation concurrently. The explicit
# second line forces the core concurrency invariants to re-run uncached:
# the stranded-work property scan, the dense-scan equivalence goldens,
# the shared-table round-robin isolation, and the shard-equivalence
# sweep (every scheme x topology x faults byte-identical at Shards 1..N).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'ActiveSetNeverStrandsWork|ActiveSetMatchesDense|SharedTableConcurrentRuns|ShardEquivalence|ShardEnqueueEquivalence' ./internal/netsim/

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

# The checkpoint/resume acceptance suite under the race detector: the
# resume-equivalence matrix (every mechanism x faults byte-identical after
# a mid-run snapshot+restore), the journal round-trip, the in-process
# mid-job interrupt, and the end-to-end SIGKILL-and-resume test that
# kills a child sweep and requires the resumed report to match an
# uninterrupted run's JSON exactly. See docs/CHECKPOINT.md.
checkpoint:
	$(GO) test -race -count=1 -run 'Checkpoint|Snapshot|ResumeEquivalence' ./internal/netsim/
	$(GO) test -race -count=1 -run 'KillAndResume|ResumeMidJob|SweepJournalRoundTrip|PanicContained' ./internal/runner/

# The route-optimizer suite under the race detector: the package-level
# property tests (invariants, determinism, deadlock freedom, escape
# pruning), the runner-level determinism matrix on optimized tables
# (-parallel 1 vs 8, Shards 1/2/NumCPU, optimizer + faults), the
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

# Active-set scheduler vs the legacy dense scan, at low load (the regime
# the scheduler exists for; must be >=2x) and at saturation (bookkeeping
# overhead; must stay within 5%). Records the numbers in BENCH_4.json.
bench-lowload:
	sh scripts/bench_lowload.sh

# Sharded core Shards=1 vs Shards=4 on a 32x32 torus (1024 switches).
# Records the numbers in BENCH_6.json with the host's CPU count — the
# speedup bar (>=2x) only applies on hosts with >=4 CPUs; single-CPU
# hosts measure coordination overhead instead. Budget ~5 minutes (the
# route build at this scale dominates).
bench-shards:
	sh scripts/bench_shards.sh

# ITB-RR vs VC flow control (2 lanes, LASH) on the small dragonfly —
# the per-point simulation-cost overhead of the VC switch pipeline.
# Records the numbers in BENCH_7.json; finishes in under a minute.
bench-vc:
	sh scripts/bench_vc.sh

# Congestion-aware route optimizer on the 8x8 torus under hotspot
# traffic: static vs optimized tables for UP/DOWN and ITB-RR, recording
# saturation throughput and knee p99 in BENCH_9.json. Fails if the
# optimized ITB-RR table does not measurably beat its static p99.
# Finishes in under a minute.
bench-optimize:
	sh scripts/bench_optimize.sh

# CPU + heap profile of a two-point sweep (one low-load point, one near
# saturation) via the -cpuprofile/-memprofile flags every tool accepts.
# Inspect with: $(GO) tool pprof cpu.pprof  (profiles are per-job labelled)
profile: build
	$(GO) run ./cmd/sweep -topo torus -scale medium -loads 0.002,0.014 \
		-parallel 1 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"

clean:
	$(GO) clean ./...
