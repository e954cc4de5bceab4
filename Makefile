# Development entry points. CI runs `make check` and `make flake-census`.

GO ?= go

# Packages whose concurrency matters most: the driver/context core, the
# coordination service, the fake clock they share, the lock-free metric
# paths (gauge registry, wdobs histograms/journal), the alarm-driven
# recovery/campaign loop, the fault injector, the gossiping mesh, and the
# lock-light CEP event ring.
RACE_PKGS := ./internal/watchdog ./internal/coord ./internal/clock ./internal/gauge ./internal/wdobs ./internal/recovery ./internal/campaign ./internal/campaign/meshscale ./internal/wdruntime ./internal/faultinject ./internal/wdmesh ./internal/wdmesh/wire ./internal/wdcep ./internal/autowatchdog/testmine ./internal/supervise ./internal/sdnotify ./internal/kvs

.PHONY: build test vet lint race kvs-commit-stress flake-census smoke mesh-smoke meshscale-smoke cep-smoke super-smoke gen-smoke bench-smoke ablation check golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the watchdog-hygiene analyzers (cmd/wdlint) over the module.
# Info-level findings are reported but do not fail; warn and error do.
lint:
	$(GO) run ./cmd/wdlint ./...

race:
	$(GO) test -race $(RACE_PKGS)

# kvs-commit-stress repeats the kvs commit-ordering and incremental-verify
# tests under the race detector: they assert orderings between a
# connection's reader, its writer and the group-commit leader, and between
# the partition checker and the flushes that reset the WAL under it; one
# pass of a race proves little.
kvs-commit-stress:
	$(GO) test -race -count=10 -run 'Commit|GroupCommit|Pipeline|Verify' ./internal/kvs

# flake-census repeats the whole suite in shuffled order and the race
# packages under the race detector, so an order- or timing-dependent test
# fails here rather than as a one-off red run elsewhere.
flake-census:
	$(GO) test -count=3 -shuffle=on ./...
	$(GO) test -race -count=2 $(RACE_PKGS)

# smoke runs short seeded fault-injection campaigns against every substrate.
# The synth campaign is virtual-clock (instant, bit-deterministic from the
# seed); the kvs and dfs campaigns exercise the real stores through the same
# wdruntime stack the daemons deploy, on the real clock with tick-scale
# breaker backoff. Any exit is nonzero if the self-hardening loop
# false-positives or misses too much.
smoke:
	$(GO) run ./cmd/wdchaos -substrate synth -seed 42 -interval 1s \
		-warmup 5 -storm 30 -cooldown 15 -grace 8 \
		-breaker 3 -breaker-backoff 10s -damp 20s -hang-budget 2
	$(GO) run ./cmd/wdchaos -substrate kvs -seed 2 -interval 20ms \
		-warmup 5 -storm 20 -cooldown 10 -grace 8 \
		-breaker 3 -breaker-backoff 100ms -damp 20s -hang-budget 2
	$(GO) run ./cmd/wdchaos -substrate dfs -seed 42 -interval 20ms \
		-warmup 5 -storm 20 -cooldown 10 -grace 8 \
		-breaker 3 -breaker-backoff 100ms -damp 20s -hang-budget 2

# mesh-smoke runs the seeded 3-node in-process mesh campaign: a remote
# fail-slow fault must be detected cluster-wide through gossiped intrinsic
# verdicts (while plain reachability heartbeats stay quiet), verdicts must
# clear on recovery, and a one-way partition must raise zero false positives
# at quorum 2.
mesh-smoke:
	$(GO) run ./cmd/wdchaos -substrate mesh -seed 7 -nodes 3 -quorum 2 \
		-mesh-interval 25ms

# meshscale-smoke runs the mesh-at-scale survival campaign (E17): 500
# Step-mode nodes on a virtual clock, driven through seeded correlated
# partition, churn, rejoin, and lossy-link faults. Gates: full convergence,
# intrinsic detection on every observer, zero false positives, and per-round
# message volume within the O(N·K) budget (vs the full mesh's O(N²)). The
# verdict is bit-deterministic from the seed: the report, which reads only the
# virtual clock, must match the committed seed-1 report byte for byte (a
# failing verdict differs from it too).
meshscale-smoke:
	$(GO) run ./cmd/wdchaos -substrate meshscale -seed 1 -nodes 500 \
		-fanout 3 -quorum 2 | diff -u internal/campaign/meshscale/testdata/seed1-n500.txt -

# cep-smoke runs the seeded temporal-rule campaign: a streak fault must fire
# the consecutive-abnormal rule, a concurrent spread fault must fire the
# distinct-checkers rule, and the fault-free control arm must fire nothing.
# Virtual clock: instant and bit-deterministic from the seed.
cep-smoke:
	$(GO) run ./cmd/wdchaos -substrate cep -seed 42

# super-smoke runs the seeded supervision campaign: a real crash-restart
# supervisor over re-executions of wdchaos, scored on time-to-restart after
# SIGKILL, stuck detection after SIGSTOP (feeds stop, process lives), episode
# adoption across a supervisor restart, and the crash-loop storm breaker.
# Exactly one open/close ledger pair per induced outage or the exit is
# nonzero.
super-smoke:
	$(GO) run ./cmd/wdchaos -substrate super -seed 42 -outages 2

# gen-smoke proves the test miner still extracts checkers from the real
# service test suites: awgen -from-tests exits nonzero when a package yields
# no minable assertion predicates, so a refactor that silently starves the
# miner fails here rather than after the generated files rot.
gen-smoke:
	$(GO) run ./cmd/awgen -from-tests -quiet -pkg ./internal/kvs
	$(GO) run ./cmd/awgen -from-tests -quiet -pkg ./internal/coord

# bench-smoke compiles the benchmark/ module (a module of its own, so build,
# test and lint above stop at its go.mod) against the internal packages it
# drives, and runs its unit tests plus a -quick pass over every workload.
# Performance numbers come from that module alone.
bench-smoke:
	$(GO) test -C benchmark .

# ablation runs the E13 checker-source comparison: the kvs and dfs substrates
# under the reduced suite, the test-mined suite, and both. Mined-only arms
# miss write-path faults by design, so the detection gate is lowered and the
# verdicts are compared, not pass/failed. It then runs the E1-E2 detector
# arms on kvs (probe, signal, handler, heartbeat) under the same schedule.
# Their verdicts are read, not gated: the heartbeat detects nothing and the
# signal arm raises false positives by design, so they exit nonzero.
ablation:
	for src in reduced mined both; do \
		$(GO) run ./cmd/wdchaos -substrate kvs -checkers $$src -seed 13 \
			-interval 20ms -warmup 5 -storm 25 -cooldown 10 \
			-min-detection-rate 0.01 || exit 1; \
		$(GO) run ./cmd/wdchaos -substrate dfs -checkers $$src -seed 13 \
			-interval 20ms -warmup 5 -storm 25 -cooldown 10 \
			-min-detection-rate 0.01 || exit 1; \
	done
	for src in probe signal handler heartbeat; do \
		$(GO) run ./cmd/wdchaos -substrate kvs -checkers $$src -seed 13 \
			-interval 20ms -warmup 5 -storm 25 -cooldown 10 \
			-min-detection-rate 0.01 || true; \
	done

# golden refreshes the AutoWatchdog generator goldens (region reduction and
# test mining) after an intentional generator change.
golden:
	$(GO) test ./internal/autowatchdog -run Golden -update
	$(GO) test ./internal/autowatchdog/testmine -run Golden -update

check: build vet lint test race kvs-commit-stress smoke mesh-smoke meshscale-smoke cep-smoke super-smoke gen-smoke bench-smoke
