GO ?= go

.PHONY: all build test race vet verify verify-race perf perf-compare loc bench-scale bench-names bench-serve serve-gate scale-gate memprofile soak soak-proc proc-gate fuzz-smoke

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# verify is the pre-merge gate: static checks, a full build, and the
# complete suite under the race detector.
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# verify-race is the race suite alone (verify already includes it).
verify-race:
	$(GO) test -race ./...

# perf is one run of the repository's benchmark (BENCHMARK.json,
# benchmarks/README.md): one workload on one seed in a fresh process, the
# four end-to-end metrics. For anything else (--trace 1, --seconds) call
# benchmarks/run.sh itself.
#   make perf WORKLOAD=ursa_query_tcp SEED=2
perf:
	bash benchmarks/run.sh --workload $(WORKLOAD) --seed $(SEED)

# perf-compare referees two sets of runs (written by `ntcsperf -set`)
# against BENCHMARK.json's bounds; non-zero exit on a regression.
#   make perf-compare A=parent.json B=change.json
perf-compare:
	bash benchmarks/run.sh -compare $(A) $(B)

# loc prints the figure every simplicity PR quotes before and after:
# non-test Go lines outside the benchmark.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' -not -path './benchmarks/*' | xargs cat | wc -l

# bench-scale runs the circuit-scale series: the PR-6 100k-endpoint
# benchmark (BENCH_PR6.json) and the PR-9 C1M benchmark — 1001 fully
# meshed ND bindings holding 1,001,000 live LVC endpoints in one
# process under a 400 B/endpoint heap gate, rewriting BENCH_PR9.json
# with before/after bytes-per-endpoint from the same run. Gated behind
# NTCS_SCALE so `make test` stays fast.
bench-scale:
	NTCS_SCALE=1 $(GO) test ./internal/ndlayer -run 'TestScale100kCircuits|TestScale1MEndpoints' -count=1 -v -timeout 30m

# bench-names runs the PR-7 million-name benchmark and rewrites
# BENCH_PR7.json with the measured numbers: one million names
# hash-partitioned across four shard groups, resolved through the full
# NSP path (lease cache, shard routing, LCM call, server dispatch).
# Gated behind NTCS_SCALE so `make test` stays fast.
bench-names:
	NTCS_SCALE=1 $(GO) test . -run TestScaleMillionNames -count=1 -v

# bench-serve runs the open-loop serving benchmark and prints its JSON:
# Poisson users query sharded URSA backends behind a gateway over real
# tcpnet, swept to saturation, plus coordinated-omission-free
# p50/p99/p999 at a fixed sub-saturation load. Gated behind NTCS_SCALE
# so `make test` stays fast. BENCH_PR10.json is an earlier same-run
# comparison of a sharded epoll poller against one loop (ratio 1.00),
# from before tcpnet read each conn on its own goroutine.
bench-serve:
	NTCS_SCALE=1 $(GO) test ./internal/experiments -run TestBenchServe -count=1 -v -timeout 30m

# serve-gate is the CI slice of the serving bench: a short open-loop
# window must complete queries with zero corrupted replies and the
# dispatch pool scheduling work, under the race detector.
serve-gate:
	$(GO) test ./internal/experiments -run TestServeGate -race -count=1 -v

# scale-gate is the cheap CI form of the scale claims: thousands of idle
# circuits must fit under a flat goroutine budget AND a flat per-endpoint
# heap budget, a hot circuit must not starve a thousand cold ones, and
# divergent name-server replicas must reconverge through anti-entropy
# alone. The heap gate must run without -race (shadow memory distorts
# heap accounting; the test skips itself under the race detector).
scale-gate:
	$(GO) test ./internal/ndlayer -run 'TestIdleCircuitGoroutineBudget|TestEndpointHeapBudget|TestHotSenderDoesNotStarveIdleCircuits' -count=1 -v
	NTCS_SCALE=1 $(GO) test . -run TestConvergenceSoak -count=1 -v

# memprofile captures a heap profile of the live 100k-endpoint mesh and
# prints the top inuse_space sites — the tool that keeps the per-endpoint
# byte ledger in DESIGN.md §14 honest. The profile is dumped mid-test via
# NTCS_MEMPROFILE (the -memprofile flag would write after test cleanup
# has torn the mesh down, capturing an empty heap).
memprofile:
	NTCS_SCALE=1 NTCS_MEMPROFILE=$(CURDIR)/mem.out $(GO) test ./internal/ndlayer -run TestScale100kCircuits -count=1 -v -timeout 30m
	$(GO) tool pprof -top -nodecount=10 -sample_index=inuse_space mem.out

# soak runs the chaos schedule under the race detector with a fixed seed
# so a failure reproduces. Override the seed: make soak NTCS_CHAOS_SEED=7
NTCS_CHAOS_SEED ?= 42
soak:
	NTCS_CHAOS_SEED=$(NTCS_CHAOS_SEED) $(GO) test . -run TestChaosSoak -race -count=1 -v

# soak-proc runs the real multi-process kill -9 gauntlet (ROADMAP item
# 3): separate OS processes over real TCP, SIGKILL of the prime gateway,
# a name-server replica and the worker, a rolling relocation and a
# SIGTERM drain — all under load, all under the race detector, recovery
# asserted from each process's scraped /stats.json. Stretch the waits on
# a slow machine: make soak-proc NTCS_PROC_WAIT_MS=60000
soak-proc:
	NTCS_PROC_SOAK=1 NTCS_PROC_RACE=1 $(GO) test ./internal/proctest -run TestProcSoak -race -count=1 -v

# proc-gate is the CI slice of the multi-process harness: the real-process
# smoke boot, the SIGTERM drain contract for every binary kind, and one
# kill -9 episode, under the race detector.
proc-gate:
	NTCS_PROC_RACE=1 $(GO) test ./internal/proctest -race -count=1 -v

# fuzz-smoke runs each wire-facing fuzz target briefly — CI's crash
# detector, not a coverage hunt. Override: make fuzz-smoke FUZZTIME=2m
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/wire -run '^FuzzHeaderDecode$$' -fuzz '^FuzzHeaderDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pack -run '^FuzzPackRoundTrip$$' -fuzz '^FuzzPackRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pack -run '^FuzzCodecEquivalence$$' -fuzz '^FuzzCodecEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ursa -run '^FuzzGeneratedCodecEquivalence$$' -fuzz '^FuzzGeneratedCodecEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nsp -run '^FuzzNSPRecord$$' -fuzz '^FuzzNSPRecord$$' -fuzztime $(FUZZTIME)
