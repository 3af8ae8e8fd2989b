# Developer entry points. CI runs the same steps (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fmt check bench scenarios shards snapshot substrate staticcheck fuzz perf-smoke pins drift loc audit

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over the quick test suite (-short skips the two slowest
# full-sweep tests): the parallel sweep pool, the per-engine isolation
# invariant, and sessions reading one blueprint's trees and child plan side
# by side while one of them edits group 0 (TestStaticSessionsShareBlueprintTrees
# and TestStaticSessionsShareBlueprintPlan, which -short does not skip) are
# exactly the kind of thing -race catches.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check: fmt vet build test

# Smoke-run every registered scenario at reduced scale (the CLI's
# -scenario all -quick, which iterates the whole registry — the paper's six
# figure panels, the churn and fault-injection scenarios): catches
# scenario-layer bit-rot in seconds. The explicit fault-builtin runs exercise the recovery tables at
# one shard and at several (fault events at quiesce barriers either way);
# cut to 2.5 s, outage-waxman-16 ends with its partition still open (the
# heal falls past the end), which Finish must report rather than panic on.
scenarios:
	$(GO) run ./cmd/wdcsim -scenario all -quick
	$(GO) run ./cmd/wdcsim -scenario outage-waxman-16 -quick -shards 1
	$(GO) run ./cmd/wdcsim -scenario outage-waxman-16 -quick -shards 4
	$(GO) run ./cmd/wdcsim -scenario outage-waxman-16 -quick -duration 2.5 -shards 1
	$(GO) run ./cmd/wdcsim -scenario outage-waxman-16 -quick -duration 2.5 -shards 4
	$(GO) run ./cmd/wdcsim -scenario epoch-churn-waxman-16 -quick -shards 4
	$(GO) run ./cmd/wdcsim -scenario waxman-zipf-512 -duration 0.5 -shards 1
	$(GO) run ./cmd/wdcsim -scenario waxman-zipf-512 -duration 0.5 -shards 8

# Sharded-mode suite, mirroring `make race`: the Shards = n and repeat
# columns of the identity matrix (internal/core/identity_test.go:
# TestShardedMatchesSequential, TestShardedDeterministicRepeatedRuns, the
# full-scale *-waxman-16 rows among them) and every other shard test across
# a shard-count matrix (WDCSIM_SHARDS overrides the default of 4 in the
# tests). Catches partition, lookahead, mailbox-
# merge, and barrier regressions that a single shard count might mask; the
# first leg runs the suite on the one-shard degeneration itself. The
# GOMAXPROCS=1 leg runs four shards on one runner (every epoch inline, no
# goroutine started), and the -race -cpu leg runs the epoch barrier — hand-
# rolled synchronisation: publish through one atomic word, nothing else
# shared — and every mailbox test (the boundary alloc pin, the merge
# property test, the gate alloc pin and FuzzMailboxDrain's seeds: the
# double-buffered hand-off that runners sort, fold and release on) at one,
# two and four runners under the race detector; -short keeps the
# full-scale rows out of that leg, as they always were. The census rows of
# harness.TestPins (a quick cell's executed events by kind and scaling
# ceiling at one, two, four and eight shards) run on one runner too: they
# are functions of the epoch schedule, not of who executes it. No pinned
# column reads WDCSIM_SHARDS.
shards:
	WDCSIM_SHARDS=1 $(GO) test -run Shard ./...
	WDCSIM_SHARDS=2 $(GO) test -run Shard ./...
	WDCSIM_SHARDS=4 $(GO) test -run Shard ./...
	WDCSIM_SHARDS=8 $(GO) test -run Shard ./...
	GOMAXPROCS=1 WDCSIM_SHARDS=4 $(GO) test -run Shard ./...
	GOMAXPROCS=1 $(GO) test -run 'TestPins/waxman-zipf-64/census' ./internal/harness
	$(GO) test -race -short -cpu 1,2,4 -run 'Coordinator|Shard|Boundary|DrainMerge|GateZeroAlloc|MailboxDrain' ./internal/des ./internal/core
	$(GO) run ./cmd/wdcsim -scenario waxman-zipf-512 -duration 0.5 -shards 4

# Coverage-guided fuzzing of the invariant-heavy corners: the timing
# wheel's cursor-behind merge-insert, its ready-run sort (insertion budget,
# run split and merges, pdqsort behind them) over one-tick chains and a
# level-1 cascade, the cross-shard mailbox merge
# against its (at, lamport, srcShard, seq) oracle, the churn schedule's
# Fenwick pick and run merge against the host scan and stable sort they
# replaced (FuzzChurnEvents: fuzzed populations, member sets and rates,
# saturated groups among them), the tree builders' RTT index against the
# full comparator sort (FuzzRTTIndex: fuzzed routers, some cut off, tied
# access delays and take sizes), the overlay graft-point
# selector (every strategy's pick against the per-candidate oracle of
# oracle_test.go), the batch prune/repair path the fault plane drives, and
# core.Restore on bytes it did not write (no panic, bounded allocation, and
# a session it returns runs to its end).
# Eight targets, 30 s each — long enough to grow a corpus, short enough
# for a CI side job (wired in as non-blocking; run longer locally when
# touching any of these subsystems). FuzzRestore's inputs are ~32 KB blobs; left at its default the
# engine spends the whole budget minimizing each interesting one, so that
# target minimizes for a single execution.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWheelCursorBehind -fuzztime $(FUZZTIME) ./internal/des
	$(GO) test -run '^$$' -fuzz FuzzReadyRunOrder -fuzztime $(FUZZTIME) ./internal/des
	$(GO) test -run '^$$' -fuzz FuzzMailboxDrain -fuzztime $(FUZZTIME) ./internal/des
	$(GO) test -run '^$$' -fuzz FuzzChurnEvents -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzRTTIndex -fuzztime $(FUZZTIME) ./internal/overlay
	$(GO) test -run '^$$' -fuzz FuzzGraftPoint -fuzztime $(FUZZTIME) ./internal/overlay
	$(GO) test -run '^$$' -fuzz FuzzBatchRepair -fuzztime $(FUZZTIME) ./internal/overlay
	$(GO) test -run '^$$' -fuzz FuzzRestore -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/core

# Checkpoint/restore differential: for two builtin workloads (static
# scale benchmark, churn benchmark) at one shard and at four, and for the
# one-hop Fig. 4(c) preset with the adaptive curve added (its checkpoint
# lands inside a (σ, ρ, λ) episode of the controller), run-to-end must be
# bit-identical to run-to-T/2 → snapshot → restore → run-to-end. This is
# the same contract the core goldens pin, exercised through real scenario
# configs and the CLI; each verdict line carries the snapshot's size and the
# milliseconds its Snapshot and its Restore took. The first leg holds a
# build, a run, one checkpoint cycle and a restored session's run to its
# end to their allocation budgets (deterministic: objects per build and
# per run, bytes and objects per Snapshot and per Restore — none per
# component, so a callback bound per component fails here, none per
# group, host, router or pending event in a build or a restore, so an
# object made per group record, source or root emitter, a partition or
# lookahead matrix computed per session, or an event, flight or packet
# pool not sized from the blob fails here, and none per
# MUX or per regulator in a run, built or restored, so a queue that makes
# its first buffer or its growth on its own instead of carving it from its
# shard's packet pool fails here too; a slab-made MUX's Enqueue within its
# carved room allocates nothing), the blueprint key to fmt's bytes in two
# objects, the size hint to surviving a restore, the member sets to one
# bit per host in one slab, built and restored, the host record to 24
# bytes with forwarding state only at the hosts with children, carved from
# one arena per shard, built and restored, every MUX to its connection's
# two ends and its shard's one shared Line, built and restored, the MUX
# record to 104 bytes, every group's tree no edit has touched — and, until
# a session's first edit, its child plan — to the blueprint's own, built,
# run and restored, and one blob to its exact byte count and SHA-256,
# so a word added back to a component record, a byte per member,
# forwarding state at a leaf, per-engine constants or a link record per
# MUX, a tree cloned or decoded or a child plan copied or compiled where
# none is written, an object per tree in a Snapshot, or a pending event written
# under another (at, prio, kind, arg), fails here as well.
snapshot:
	$(GO) test -run 'TestBuildAllocBudget|TestRunAllocBudget|TestCheckpointCycleAllocBudget|TestRestoredRunAllocBudget|TestBlueprintKeyAllocBudget|TestBlueprintKeyMatchesFmt|TestSnapshotHintSurvivesRestore|TestMembershipIsOneBitPerHost|TestHostRecordSize|TestLeavesCarryNoForwarder|TestMuxEndsAreConnections|TestStaticSessionsShareBlueprintTrees|TestStaticSessionsShareBlueprintPlan|TestSnapshotBlobBytes' ./internal/core
	$(GO) test -run 'TestSlabEnqueueAllocFree|TestMuxRecordSize' ./internal/mux
	$(GO) run ./cmd/wdcsim -scenario waxman-zipf-16 -quick -shards 1 -snapshot-diff
	$(GO) run ./cmd/wdcsim -scenario waxman-zipf-16 -quick -shards 4 -snapshot-diff
	$(GO) run ./cmd/wdcsim -scenario churn-waxman-16 -quick -shards 1 -snapshot-diff
	$(GO) run ./cmd/wdcsim -scenario churn-waxman-16 -quick -shards 4 -snapshot-diff
	$(GO) run ./cmd/wdcsim -scenario paper-fig4c -quick -adaptive -snapshot-diff

# Static analysis. Skips with a notice when the binary is missing so the
# target is safe on minimal containers; CI installs staticcheck and runs
# this for real.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
		echo "  (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Full benchmark pass with allocation stats, human-readable.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# The repository benchmark (BENCHMARK.json, benchmark/README.md) is a nested
# module, so vet and `go test ./...` at the root never reach it. This vets
# it, runs its tests (span and bound arithmetic, manifest, the -quick path
# in-process) and its < 10 s smoke run with every check on. Not for
# claims: those take `go run -C benchmark .` or benchmark/run.sh.
perf-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .
	$(GO) run -C benchmark . -quick

# The benchmark's pins: every workload once at full scale, untraced, held
# to benchmark/expected.json — churn-storm's json_sha256 pins the whole run
# of the churn, fault and re-optimization planes bit for bit — with the
# sharded ≡ sequential and restored ≡ straight checks on. It ends with one
# JSON line and exits non-zero unless that line says 0 failed. perf-smoke's
# -quick run skips expected.json; this is the run that reads it (≈ 35 s on
# two cores). It checks benchmark/expected.json only: it is not the tier-1
# pin table, harness.TestPins (internal/harness/testdata/pins.json), which
# `go test ./...` runs.
pins:
	$(GO) run -C benchmark . -reps 1 -trace 0

# Paired drift audit (scripts/drift.sh): this checkout against commit BASE
# on one benchmark workload, PAIRS pairs of `benchmark/run.sh --seconds 6
# --trace 0` (at SEED when given), alternating which side runs first. It
# clones BASE into a fresh directory under $$TMPDIR and prints each
# end-to-end metric's per-side median and quartiles, this checkout's win
# count, and every pair.
drift:
	bash scripts/drift.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED)

# Substrate compile differentials under the race detector: the parallel
# compiler must be bit-identical to sequential, the blueprint cache must
# key correctly, sessions that edit must never share mutable state and
# leave the blueprint byte for byte as built, the child plan must match its
# reference in its layout (three arenas and an offset per host) and be
# compiled once per blueprint for every session until its first edit, a
# re-optimization pass must plan on shared trees without writing them
# (two sessions side by side), sessions of one blueprint at one shard count
# must share one host partition and one lookahead matrix and write neither
# (three sessions side by side, built and restored), a graft into a tree
# with a live RTT index must refuse a host outside the indexed network
# with an error, a panic in a compile pass must reach the
# caller, a cache-warm session must reproduce
# the cold session's Result exactly (the warm-cache column of the identity
# matrix, every fixture a row), and a cold compile must stay within
# its object budget: a constant per group, nothing per cluster, per domain
# or per router (each group's hierarchy runs in one buffer, the routing
# tables are one slab each). The second leg holds each set-up pass to the
# algorithm it replaced, kept as a test reference: the heap shortest-path
# search, striped over workers, to the linear scan (every delay and next
# hop, tied delays included); the RTT index to the full comparator sort,
# alone and inside the DSCT, NICE, flat and greedy builders; every
# strategy's graft point, the RTT-keyed ones popping from the tree's live
# index, to the per-candidate oracle over long edit sequences, clones and
# decoded copies, and the index's pinned work ledger on a churning tree;
# and the churn schedule's Fenwick pick and run merge to the host scan
# and stable sort.
substrate:
	$(GO) test -race -run 'TestParallelCompileBitIdentical|TestSubstrateCloneIsolation|TestBlueprintCacheKeying|TestCompileChildrenArena|TestCompileChildrenPanicReachesCaller|TestHostConnsMatchesNewHost|TestStaticSessionsShareBlueprintPlan|TestReoptPlanReadsSharedTrees|TestSessionsShareBlueprintSharding|TestGraftOutsideIndexedNetworkIsAnError|TestCachedSessionRunsIdentical|TestBlueprintCompileAllocBudget' ./internal/core
	$(GO) test -race -run 'TestAllPairsMatchesReference|TestHierarchyInPlaceMatchesReference|TestFlatBuildsMatchReference|TestRTTIndexMatchesFullSort|TestGraftPointsMatchOracle|TestGraftIndexWorkLedger|TestChurnEventsMatchReference|TestChurnEventsSaturatedGroup|TestMergeRunsMatchesStableSort' ./internal/topo ./internal/overlay ./internal/scenario

# Non-test Go lines outside benchmark/, per package and in total — the
# figure the simplicity PRs report (ROADMAP aim 2).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d  %s\n", n[d], d; printf "%6d  total\n", t }' | sort -k2

# The unused-export audit (audit_test.go, standard library only): every
# exported identifier under internal/ needs a non-test caller — cmd/,
# examples/, the facade, another package, or the benchmark module — or a
# one-line reason on the test's allowlist. `go test ./...` runs it too;
# this target runs it alone and prints the audited count and allowlist size.
audit:
	$(GO) test -count=1 -run '^TestUnusedExports$$' -v .
