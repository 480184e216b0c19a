GO ?= go
FUZZTIME ?= 5s

# Benchmark baselines are stamped with the document schema version and
# the source revision that produced them, so a committed BENCH_*.json
# diff is attributable without archaeology.
BENCH_SCHEMA ?= tmesh-bench/v1
COMMIT := $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)

.PHONY: ci build vet test race bench bench-rekey bench-hot bench-mem bench-all bench-harness loc soak-short soak-transport soak-metrics soak-scale soak-multigroup soak-slo trace-audit fuzz

# ci is the full verification gate: static checks, the race detector
# over the whole tree (the parallel experiment harness in internal/exp
# and the SPT cache in internal/vnet have concurrency tests that only
# bite under -race; the chaos soak acceptance tests run here too), the
# socket-transport soak (fault ladder over real loopback and UDP
# endpoints), a short fuzz pass over the wire decoders, the
# flight-recorder theorem audit over a freshly traced soak, the
# hot-path benchmark gate (the compiled hop filter must stay at
# 0 allocs/op), the memory-budget gate, the N=100k scale soak, the
# multi-group tenancy soak (16 groups on the shared fan-out, 100k-join
# flash crowd, cross-width replay), the SLO soak (per-tenant verdict
# stream schema-checked, exposition format golden-pinned), and the
# bench/ harness's own vet + smoke test.
ci: vet race soak-transport fuzz trace-audit bench-hot bench-mem soak-scale soak-multigroup soak-slo bench-harness

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

# soak-short is the race-enabled chaos soak: the full acceptance
# scenarios (default config, byte-identical replay, 20% hop loss) with
# every paper-invariant auditor armed.
soak-short:
	$(GO) test -race ./internal/chaos -run Soak

# soak-transport is the race-enabled socket soak: rekeyd nodes over
# real loopback and UDP transports walk the chaos fault ladder (loss,
# delay spikes, partition, kill/restore, crash) with the five
# paper-invariant auditors armed, plus the transport-level redial,
# deadline, and goroutine-leak guards.
soak-transport:
	$(GO) test -race -count=1 ./internal/transport
	$(GO) test -race -count=1 ./internal/chaos -run SocketSoak
	$(GO) test -race -count=1 ./internal/rekeyd

# soak-metrics runs a short instrumented soak with -metrics-out and
# sanity-checks the JSONL stream (valid JSON per line, strictly
# increasing interval numbers) with the jsonlcheck tool.
soak-metrics:
	mkdir -p results
	$(GO) run ./cmd/rekeysim -soak -soak-intervals 6 -soak-members 100 -metrics-out results/soak-metrics.jsonl
	$(GO) run ./internal/obs/jsonlcheck results/soak-metrics.jsonl

# trace-audit runs a short soak with the flight recorder sampling every
# second interval, schema-checks the trace stream, and machine-checks
# the paper's path theorems (exactly-one-copy, forward-iff-needed,
# level monotonicity, ladder coverage) against the recorded hops.
trace-audit:
	mkdir -p results
	$(GO) run ./cmd/rekeysim -soak -soak-intervals 6 -soak-members 100 -trace-out results/soak-trace.jsonl -trace-sample 2
	$(GO) run ./internal/obs/jsonlcheck results/soak-trace.jsonl
	$(GO) run ./cmd/traceaudit results/soak-trace.jsonl

# fuzz gives each wire decoder a short budget on top of the committed
# seed corpus (internal/wire/testdata/fuzz, regenerated with
# `go run ./internal/wire/gencorpus`). `go test -fuzz` takes one
# harness at a time, hence the five invocations.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalRekey$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalQueryReply$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalQuery$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalAck$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalSync$$' -fuzztime $(FUZZTIME)

# bench runs every figure benchmark once; use a larger -benchtime for
# stable numbers. The Fig06/Fig08 Sequential/Parallel pairs measure the
# run-level fan-out (speedup requires GOMAXPROCS > 1).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# bench-hot regenerates the committed hot-path baseline
# BENCH_hotpath.json: the per-hop split cost before (HopFilterLegacy)
# and after (HopFilterCompiled) compilation, the one-time index build,
# and the end-to-end regen/distribute pipeline at N=4096. benchjson
# fails the target if the compiled hop filter reports any allocations,
# so the allocation-free steady state is a CI invariant, not a comment.
bench-hot:
	$(GO) test -run '^$$' -bench 'HopFilter|SplitIndexBuild' -benchmem -benchtime 1s . > results-bench-hot.txt || (cat results-bench-hot.txt; rm -f results-bench-hot.txt; exit 1)
	$(GO) test -run '^$$' -bench 'ProcessIntervalPar|DistributeRekey' -benchmem -benchtime 3x . >> results-bench-hot.txt || (cat results-bench-hot.txt; rm -f results-bench-hot.txt; exit 1)
	$(GO) run ./cmd/benchjson -out BENCH_hotpath.json -schema $(BENCH_SCHEMA) -commit $(COMMIT) -require-zero-allocs BenchmarkHopFilterCompiled < results-bench-hot.txt
	rm -f results-bench-hot.txt

# bench-mem regenerates the committed memory baseline BENCH_memory.json
# from the scale-soak benchmarks: the resident bytes/member of a fully
# built RealCrypto group (MemberFootprint, N=20k) and the steady-state
# allocation cost of one churn interval at N=100k (ScaleSoakInterval).
# benchjson fails the target when a build or interval blows its byte or
# allocation budget, so memory regressions on the million-member path
# break CI instead of surfacing in production soaks. Budgets carry
# ~1.5x headroom over the committed numbers.
bench-mem:
	$(GO) test -run '^$$' -bench 'MemberFootprint|ScaleSoakInterval' -benchmem -benchtime 1x ./internal/chaos > results-bench-mem.txt || (cat results-bench-mem.txt; rm -f results-bench-mem.txt; exit 1)
	$(GO) run ./cmd/benchjson -out BENCH_memory.json \
		-schema $(BENCH_SCHEMA) -commit $(COMMIT) \
		-require-max-bytes 'BenchmarkMemberFootprint=120000000,BenchmarkScaleSoakInterval=800000000' \
		-require-max-allocs 'BenchmarkMemberFootprint=700000,BenchmarkScaleSoakInterval=2500000' \
		< results-bench-mem.txt
	rm -f results-bench-mem.txt

# bench-harness vets and smoke-tests the repo benchmark in bench/. It is
# its own module (`replace tmesh => ../`), so `go vet ./...` and
# `go test ./...` from the root never compile it: without this target a
# moved signature could break the benchmark silently.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# loc prints non-test Go lines per package under internal/ and cmd/,
# and their total — the number CHANGES.md quotes for net-negative PRs.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		     END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# bench-all regenerates every committed benchmark baseline with the
# current schema/commit stamp in one shot.
bench-all: bench-hot bench-mem

# soak-scale is the in-memory million-member ladder: a N=100k scale
# soak (flat keytree + rank-indexed member store + streaming
# percentiles, 1% churn per interval, every keyring spot-checked) runs
# in CI; the full N=1,000,000 soak is the manual acceptance run:
#
#	$(GO) run ./cmd/rekeysim -soak -soak-n 1000000
#
soak-scale:
	$(GO) run ./cmd/rekeysim -soak -soak-n 100000 -soak-intervals 6

# soak-multigroup is the multi-group tenancy soak (internal/grouphost):
# 16 groups — a 100k-join flash crowd, a 10k mass join+leave, and 14
# full-protocol groups (half under Appendix B cluster rekeying) on one
# shared GT-ITM topology — multiplexed over the process-wide fan-out
# with staggered rekey boundaries. Every interval runs the five paper
# auditors per group, then the whole host replays inline (GOMAXPROCS 1)
# and the reports must be byte-identical.
soak-multigroup:
	$(GO) run ./cmd/rekeysim -soak -groups 16 -flash-joins 100000 -mass-churn 10000 -soak-intervals 4

# soak-slo is the ops-plane gate: a multi-group tenancy soak with the
# per-tenant SLO engine streaming one "slo" record per group per rekey
# boundary. The soak exits non-zero on any page verdict, jsonlcheck
# schema-checks the stream (per-group boundary ordering, verdict enum,
# objective good<=total), rekeystat renders it, and the Prometheus
# exposition golden test pins the /metrics wire format.
soak-slo:
	mkdir -p results
	$(GO) run ./cmd/rekeysim -soak -groups 8 -flash-joins 20000 -mass-churn 2000 -soak-intervals 3 -metrics-out results/soak-slo.jsonl
	$(GO) run ./internal/obs/jsonlcheck results/soak-slo.jsonl
	$(GO) run ./cmd/rekeystat -jsonl results/soak-slo.jsonl
	$(GO) test ./internal/obs/expose -run Golden -count=1

# bench-rekey compares the staged rekey pipeline sequential vs parallel
# at N=4096 members with real AES-GCM: key regeneration across level-1
# ID subtrees (ProcessInterval) and split delivery + keyring apply
# (DistributeRekey). Regeneration speedup requires GOMAXPROCS > 1; the
# distribution pair also gains from the parallel path's per-subtree
# prefilter table.
bench-rekey:
	$(GO) test -run '^$$' -bench 'ProcessInterval|DistributeRekey' -benchtime 3x .
