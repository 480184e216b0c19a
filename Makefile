GO ?= go
FUZZTIME ?= 5s

.PHONY: ci build vet test race examples bench-harness bench-pairs loc dead soak-short soak-transport soak-metrics soak-scale soak-multigroup soak-slo trace-audit fuzz

# ci is the full verification gate: static checks, the line budget
# (`loc`) and the dead-export budget (`dead`), the race detector
# over the whole tree (the parallel experiment harness in internal/exp
# and the SPT cache in internal/vnet have concurrency tests that only
# bite under -race; the chaos soak acceptance tests run here too), the
# socket-transport soak (fault ladder over real loopback and UDP
# endpoints), a short fuzz pass over the wire decoders, the
# flight-recorder theorem audit over a freshly traced soak, the N=100k
# scale soak, the multi-group tenancy soak (16 groups on the shared
# fan-out, 100k-join flash crowd, cross-width replay), the SLO soak
# (per-tenant verdict stream schema-checked, exposition format
# golden-pinned), the five example programs, and the bench/ harness's
# own vet + smoke test. The hot-path gate (the compiled
# hop filter allocates nothing: split.TestIndexSplitAllocatesNothing) and
# the memory gate (resident bytes/member of a built world:
# chaos.TestMemberFootprintBudget) are ordinary tests inside `race`.
ci: vet loc dead race soak-transport fuzz trace-audit soak-scale soak-multigroup soak-slo examples bench-harness

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

# examples runs the five example programs to completion (each exits
# non-zero on failure; none takes a second). examples/simulation is the
# only caller of core.RunSession outside the tests.
examples:
	$(GO) run ./examples/quickstart >/dev/null
	$(GO) run ./examples/simulation >/dev/null
	$(GO) run ./examples/payperview >/dev/null
	$(GO) run ./examples/failover >/dev/null
	$(GO) run ./examples/securechat >/dev/null

# soak-short is the race-enabled chaos soak: the full acceptance
# scenarios (default config, byte-identical replay, 20% hop loss) with
# every paper-invariant auditor armed.
soak-short:
	$(GO) test -race ./internal/chaos -run Soak

# soak-transport is the race-enabled socket soak: rekeyd nodes over
# real loopback, UDP and TCP transports walk the chaos fault ladder (loss,
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
# second interval, then traceaudit schema-checks the trace stream and
# machine-checks the paper's path theorems (exactly-one-copy,
# forward-iff-needed, level monotonicity, ladder coverage) against the
# recorded hops.
trace-audit:
	mkdir -p results
	$(GO) run ./cmd/rekeysim -soak -soak-intervals 6 -soak-members 100 -trace-out results/soak-trace.jsonl -trace-sample 2
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

# bench-harness vets and smoke-tests the repo benchmark in bench/. It is
# its own module (`replace tmesh => ../`), so `go vet ./...` and
# `go test ./...` from the root never compile it: without this target a
# moved signature could break the benchmark silently.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-pairs is how a perf claim is measured: BASE (a git ref) and the
# checkout run WORKLOAD alternately, PAIRS times, then bench/run.sh
# --compare judges the two result files. See scripts/bench-pairs.sh.
BASE ?= HEAD
WORKLOAD ?= sim_4096
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(BASE) $(WORKLOAD) $(PAIRS)

# loc prints non-test Go lines per package under internal/ and cmd/,
# and their total — the number CHANGES.md quotes for net-negative PRs —
# and fails when the tree has outgrown LOC_BUDGET: the ceilings on
# internal/transport + internal/rekeyd and on the total, in that order,
# that the last simplicity PR reached. A PR that must grow past one
# raises it here, in the open, next to its CHANGES.md line.
LOC_BUDGET ?= 2594 21132
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk -v budget="$(LOC_BUDGET)" \
		    '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		     END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		           printf "%6d total\n", t; s = n["internal/transport"] + n["internal/rekeyd"]; \
		           split(budget, b, " "); if (s > b[1] || t > b[2]) { \
		               printf "loc: over LOC_BUDGET: transport+rekeyd %d (budget %d), total %d (budget %d)\n", s, b[1], t, b[2]; exit 1 } }'

# dead lists the exported funcs and methods under internal/ that no
# non-test file under internal/, cmd/, examples/ or bench/ mentions by
# name (scripts/dead: go/parser only, name-based) and fails above
# DEAD_BUDGET — a ratchet like LOC_BUDGET: lower it when a PR deletes
# some. What is left is mostly the paper's inventory (wire's unsent
# Query/Record decoders, lkh's closed-form costs) and test-only probes.
DEAD_BUDGET ?= 34
dead:
	@$(GO) run ./scripts/dead -budget $(DEAD_BUDGET)

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
