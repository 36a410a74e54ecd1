# Build and verification entry points. `make verify` is the race-clean
# tier referenced from ROADMAP.md: vet plus the full test suite (chaos
# scenarios included) under the race detector.

GO ?= go

.PHONY: build test verify race chaos trace fuzz defense scale straggler

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 plus the race-clean tier: everything must pass with -race.
# The GEMM determinism contract runs first on its own — the worker-
# parallel kernels underpin every training result, so their races should
# fail fast and by name before the full suite runs. The observability
# contract follows for the same reason: metrics, tracing and logging
# must never perturb a seeded run, so its violations should also fail
# by name. The payload-aggregation differential tier (fused kernels vs
# decode-then-aggregate, bit for bit, across codecs × rules × workers ×
# degraded quorums) runs third: the fused path feeds every aggregate,
# so its divergences should likewise fail by name under the race
# detector before the full suite. The loss-oracle tier runs fourth:
# the oracle dispatch (loss rules, degraded quorums, engine vs
# distributed parity) is the newest aggregation surface, and its
# contract violations should fail by name too. The sharded-aggregation
# differential tier runs fifth: the two-tier shard tree must stay
# bit-identical to the unsharded rules (every registry rule × shard
# count × workers × degraded quorum × payload codec), and its streaming
# accumulators are the most concurrent code in the tree, so they run by
# name under the race detector before the full suite. The async
# determinism tier runs sixth: the bounded-staleness lifecycle (one
# reader goroutine per connection racing a window deadline, stale
# admission, disk-backed spill) is the most concurrent round path, and
# two seeded runs must stay bit-identical under the race detector —
# its divergences should fail by name before the full suite; the same
# stage holds the degenerate-window identity (a wide-window async
# federation ends on the sync federation's exact models), the witness
# that the two modes share one round loop. The ingest
# tier runs seventh, in two deliberately split stages: the connection
# flood + junk storm chaos gate (10k garbage connections racing the
# concurrent accept stage must leave the final model bit-identical)
# runs WITH -race because the accept path is goroutine-per-handshake;
# the Decode allocation gates run WITHOUT -race because the race
# runtime's shadow allocations make testing.AllocsPerRun and TotalAlloc
# deltas meaningless (the gates skip themselves under -race, so this
# named no-race stage is the only place they actually assert); the
# top-k encode allocation gate (a steady-state topk/ef+topk encode at
# d = 1e5 allocates nothing) rides in the same stage for the same
# reason. The federation-spec tier runs eighth: one spec (fedms.Config resolved to
# core.Config) is bound to flags once and every node's configuration is
# derived from it, so the CLI contract (the pinned flag surface, the
# one table of rejections, both commands surfacing it before any
# listener binds, `-role client` running the client `-role local`
# would) and the derived-federation ≡ engine parity fail by name.
verify:
	$(GO) vet ./...
	$(GO) test -race -run 'Gemm' ./internal/tensor/
	$(GO) test -race -run 'TestObsDeterminism' ./internal/node/ ./internal/core/
	$(GO) test -race -run 'TestPayloadAggregation' ./internal/aggregate/
	$(GO) test -race -run 'TestLossRule|TestKrumFamilyPartialParticipation' ./internal/aggregate/
	$(GO) test -race -run 'TestDistributedMatchesEngineLoss' ./internal/node/
	$(GO) test -race -run 'TestShardedAggregation' ./internal/aggregate/
	$(GO) test -race -run 'TestDistributedShardedMatchesEngine|TestDistributedParticipationMatchesEngine' ./internal/node/
	$(GO) test -race -run 'TestAsyncDeterminismChaos|TestAsyncWideWindowMatchesSyncDistributed' ./internal/node/
	$(GO) test -race -run 'TestAsyncDeterminism|TestAsyncSpillPathsBitIdentical' ./internal/core/
	$(GO) test -race -run 'TestChaosFloodJunkStorm' ./internal/node/
	$(GO) test -run 'TestDecodeOversizeClaimBounded|TestHelloPrefilterRejectZeroAlloc|TestTopKEncodeZeroAlloc' ./internal/transport/ ./internal/compress/
	$(GO) test -race -run 'FlagSurface|TestRejectsBadSharedFlags|SurfacesSpecErrors|TestNodeRejectsBadDeploymentFlags|TestNodeClientRoleRunsTheLocalClient' ./cmd/...
	$(GO) test -race -run 'TestDerivedFederationMatchesEngine|TestDerivationRejectsRoundRobin' ./internal/node/
	$(GO) test -race ./...

# Just the fault-injection surface under the race detector.
race:
	$(GO) test -race ./internal/node/... ./internal/transport/...

# The deterministic chaos scenarios, verbosely.
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/node/...

# A short lossy local federation with the JSONL round trace on, written
# to chaos_trace.jsonl — the runnable example behind the EXPERIMENTS.md
# trace walkthrough; CI uploads the file as a build artifact.
trace:
	$(GO) run ./cmd/fedms-node -role local -clients 4 -servers 2 \
		-rounds 5 -samples 800 -fault-drop 0.1 -fault-seed 7 \
		-min-models 1 -timeout 5s -trace chaos_trace.jsonl

# Short fuzz pass over the wire decoder (corpus includes injector-
# damaged frames).
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/transport/

# Defense-matrix smoke: the rules × attacks table at -quick scale,
# written to defense_matrix.txt — CI uploads it as a build artifact so
# every run leaves a browsable copy of the loss-rule acceptance story.
defense:
	$(GO) run ./cmd/fedms-bench -exp defense -quick | tee defense_matrix.txt

# Scale curve: rounds/sec vs K through the two-tier shard tree, out to
# K = 100k simulated clients plus a distributed smoke point, written to
# scale_curve.json (see EXPERIMENTS.md "Scale") — CI uploads it as a
# build artifact. Run on an otherwise idle machine.
scale:
	$(GO) run ./cmd/fedms-bench -exp scale -scaleout scale_curve.json

# Straggler curve: simulated round time vs one client's slowdown,
# synchronous barrier vs bounded-staleness async rounds, written to
# straggler_curve.json (see EXPERIMENTS.md "Stragglers") — CI uploads
# it as a build artifact. Fully virtual (netsim), so it is cheap and
# deterministic.
straggler:
	$(GO) run ./cmd/fedms-bench -exp straggler -stragglerout straggler_curve.json
