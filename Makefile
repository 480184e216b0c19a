GO ?= go
FUZZTIME ?= 5s

.PHONY: ci build vet test race examples bench-harness bench-keyplane bench-overlay bench-pairs loc dead soak-short soak-transport soak-metrics soak-scale soak-multigroup soak-slo trace-audit fuzz

# ci is the full verification gate: static checks, the line budget
# (`loc`) and the dead-export budget (`dead`), the race detector
# over the whole tree (the parallel experiment harness in internal/exp
# and the GT-ITM tables in internal/vnet have concurrency tests that only
# bite under -race; the chaos soak acceptance tests run here too), the
# socket-transport soak (fault ladder over real loopback and UDP
# endpoints), a short fuzz pass over the wire decoders and the ID tree, the
# flight-recorder audit (chaos.Audit per trace) over a clean and a
# lossy traced soak, the
# schema check of the chaos soak's interval stream, the N=100k
# scale soak, the multi-group tenancy soak (16 groups on the shared
# fan-out, 100k-join flash crowd, cross-width replay), the SLO soak
# (per-tenant verdict stream schema-checked, exposition format
# golden-pinned), the five example programs, the bench/ harness's
# own vet + smoke test, and one run each of the key plane's and the
# overlay's per-layer benchmarks. The hot-path gate (the hop split
# allocates nothing: split.TestIndexSplitAllocatesNothing) and
# the memory gate (resident bytes/member of a built world:
# chaos.TestMemberFootprintBudget) are ordinary tests inside `race`.
ci: vet loc dead race soak-transport fuzz trace-audit soak-metrics soak-scale soak-multigroup soak-slo examples bench-harness bench-keyplane bench-overlay

build:
	$(GO) build ./...

# vet also cross-builds for Windows and macOS: the transport's sockets
# are the code most likely to lean on one platform's syscalls.
vet:
	$(GO) vet ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=darwin $(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

# examples runs the five example programs to completion (each exits
# non-zero on failure; none takes a second) and checks that each printed
# exactly the stdout it always has: examples/stdout.md5 holds the md5 of
# every program's output. examples/simulation is the only caller of
# core.RunSession outside the tests.
EXAMPLES = quickstart simulation payperview failover securechat
examples:
	mkdir -p results/examples
	for e in $(EXAMPLES); do $(GO) run ./examples/$$e > results/examples/$$e || exit 1; done
	cd results/examples && md5sum -c ../../examples/stdout.md5

# soak-short is the race-enabled chaos soak: the full acceptance
# scenarios (default config, byte-identical replay, 20% hop loss) with
# every paper-invariant auditor armed, and the schedule replays (each
# acceptance seed's recorded schedule, and every schedule under
# internal/workload/testdata).
soak-short:
	$(GO) test -race ./internal/chaos -run Soak

# soak-transport is the race-enabled socket soak: rekeyd nodes over
# real loopback, UDP and TCP transports walk the chaos fault ladder (loss,
# delay spikes, partition, kill/restore, crash) with the five
# paper-invariant auditors armed, plus the transport-level redial,
# deadline, loss-rate and goroutine-leak guards and the daemon's ladder
# bookkeeping (retries, expired backoff, dead in flight). The SocketSoak
# tests include the soak's replay of its own recorded schedule and of
# the committed ones, and the replay of each committed schedule on both
# wires, which must build one key tree.
soak-transport:
	$(GO) test -race -count=1 ./internal/transport
	$(GO) test -race -count=1 ./internal/chaos -run SocketSoak
	$(GO) test -race -count=1 ./internal/rekeyd

# soak-metrics runs a short instrumented soak with -metrics-out, then
# rekeystat reads the JSONL stream, schema-checks it (valid JSON per
# line, strictly increasing interval numbers, well-formed slo records)
# and renders it.
soak-metrics:
	mkdir -p results
	$(GO) run ./cmd/rekeysim soak -intervals 6 -members 100 -metrics-out results/soak-metrics.jsonl
	$(GO) run ./cmd/rekeystat -jsonl results/soak-metrics.jsonl

# trace-audit runs two short soaks, clean and with 15% hop loss, with
# the flight recorder sampling every second interval. traceaudit then
# checks each trace stream against itself (schema, causal order, level
# monotonicity) and runs chaos.Audit on the evidence built from every
# trace: the soak auditors' Theorem 1, Theorem 2 and Lemma 3 checks,
# the ladder's included, with no second copy of the theorems.
trace-audit:
	mkdir -p results
	$(GO) run ./cmd/rekeysim soak -intervals 6 -members 100 -trace-out results/soak-trace.jsonl -trace-sample 2
	$(GO) run ./cmd/traceaudit results/soak-trace.jsonl
	$(GO) run ./cmd/rekeysim soak -intervals 6 -members 100 -loss 0.15 -trace-out results/soak-trace-loss.jsonl -trace-sample 2
	$(GO) run ./cmd/traceaudit results/soak-trace-loss.jsonl

# fuzz gives each wire decoder a short budget on top of its seeds: the
# f.Add calls in internal/wire/fuzz_test.go build valid, truncated,
# bit-flipped and huge-count frames with the encoders. Each file under
# internal/wire/testdata/fuzz holds a copy of one of those seeds, which
# go test also replays by file name. The schedule text form gets the
# same: FuzzParseSchedule, seeded with the committed schedules. So does
# the ID tree: FuzzTreeMatchesModel decodes bytes into an ID space and
# insert/remove sequence and checks every query against the map-backed
# reference model in internal/ident's tests, and FuzzWordMatchesModel
# checks the one-word ID's operations against the string ID it replaced.
# And the hop split, which a daemon member runs on whatever a peer sent
# it: FuzzAppendShare decodes bytes into a payload of mixed-length IDs in
# any order and checks the share against the reference filter. `go test
# -fuzz` takes one harness at a time, hence the eight invocations.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalRekey$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalQueryReply$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalQuery$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalAck$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -run '^$$' -fuzz '^FuzzParseSchedule$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ident -run '^$$' -fuzz '^FuzzTreeMatchesModel$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ident -run '^$$' -fuzz '^FuzzWordMatchesModel$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/split -run '^$$' -fuzz '^FuzzAppendShare$$' -fuzztime $(FUZZTIME)

# bench-harness vets and smoke-tests the repo benchmark in bench/. It is
# its own module (`replace tmesh => ../`), so `go vet ./...` and
# `go test ./...` from the root never compile it: without this target a
# moved signature could break the benchmark silently.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-keyplane runs chaos.BenchmarkKeyPlaneRekey once: the per-layer
# number of one key-plane interval on the key tree the scale soak ships
# (us/member, allocs/member, the resident B/member it leaves, encs/op
# and keys/member), which bench/'s traced world cannot see because it
# builds its own tree. One run keeps it compiling and running; measure
# with -benchtime 20x.
bench-keyplane:
	$(GO) test ./internal/chaos -run '^$$' -bench '^BenchmarkKeyPlaneRekey$$' -benchtime 1x

# bench-overlay runs overlay.BenchmarkDirectoryChurn once on the
# sim_4096 graph: an interval's 16 leaves and 16 joins at 4096 members,
# per event in µs (join_us, leave_us) and in the deterministic counts of
# the stub pruning (probes_per_join, probes_per_leave,
# holders_visited_per_leave). One run keeps it compiling and running;
# measure with -benchtime 20x.
bench-overlay:
	$(GO) test ./internal/overlay -run '^$$' -bench '^BenchmarkDirectoryChurn$$/^sim_4096$$' -benchtime 1x

# bench-pairs is how a perf claim is measured: BASE (a git ref) and the
# checkout run WORKLOAD alternately, PAIRS times, then bench/run.sh
# --compare judges the two result files. WORKLOAD may be a
# space-separated list: each workload gets its own pairs and its own
# verdict block. LAYERS, a metric regex such as '^overlay\.', adds one
# traced run per side and prints the matching per-layer metrics side by
# side. See scripts/bench-pairs.sh.
BASE ?= HEAD
WORKLOAD ?= sim_4096
PAIRS ?= 10
LAYERS ?=
bench-pairs:
	bash scripts/bench-pairs.sh $(BASE) '$(WORKLOAD)' $(PAIRS) '$(LAYERS)'

# loc prints non-test Go lines per package under internal/ and cmd/,
# and their total — the number CHANGES.md quotes for net-negative PRs —
# and fails when the tree has outgrown LOC_BUDGET: the ceilings on
# internal/transport + internal/rekeyd and on the total, in that order,
# that the last simplicity PR reached. A PR that must grow past one
# raises it here, in the open, next to its CHANGES.md line.
# DESIGN_BUDGET is the same ratchet on DESIGN.md's bytes: it only goes
# down, so prose leaves with the path it describes.
# Raised 2624 20598 -> 2695 20712: the socket plane's reused receive
# and forward storage (transport+rekeyd +71: a member's receive lock and
# decode message, the forwarder's hop and share storage, PeerID reuse in
# the registry and in dispatch; wire +43: AppendRekey, RekeySize and
# UnmarshalRekeyInto).
# Raised total 20712 -> 21043: membership events skip the stub domains
# they cannot change (overlay +291: the stub index and its bounds, the
# joiner's row-0 gatherer, the pruned Join/Leave/Holders passes, and a
# full deeper row reusing an emptied window or growing by an eighth;
# vnet +34: the Stubs interface and GTITM's four methods; ident +6:
# Tree.EachMember).
# Lowered total 21043 -> 21012 and DESIGN_BUDGET 76849 -> 76821:
# core.Group keeps its keyrings in the key tree's Keyrings slab
# (memberstate -43, core +11, wire +1).
# Lowered total 21012 -> 21006 and DESIGN_BUDGET 76821 -> 76795: the
# chaos engine is a chaos.Plane and plays every interval through
# chaos.Step (chaos -6).
# Raised total 21006 -> 21034 and lowered DESIGN_BUDGET 76795 -> 76784:
# the key tenant keys a refined bottom digit (chaos +44: its host map,
# the tree's shape in the scale report; core -9, keytree -6, grouphost
# -1).
# Raised total 21034 -> 21175: a leave reads only what it can change
# (overlay +141, of which 47 comment lines: the candidate lists and each
# holder stub's nearest-first order kept in the directory, the refill's
# ordered walk with its tie and re-measure bookkeeping, the holder walk
# Leave, Evict and Holders share, and the package comment's invariant
# and ledger metric; Join's rank-ordered pass is inlined and each went).
LOC_BUDGET ?= 2695 21175
DESIGN_BUDGET ?= 76782
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs wc -l | \
		awk -v budget="$(LOC_BUDGET)" \
		    '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		     END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		           printf "%6d total\n", t; s = n["internal/transport"] + n["internal/rekeyd"]; \
		           split(budget, b, " "); if (s > b[1] || t > b[2]) { \
		               printf "loc: over LOC_BUDGET: transport+rekeyd %d (budget %d), total %d (budget %d)\n", s, b[1], t, b[2]; exit 1 } }'
	@wc -c < DESIGN.md | awk -v budget="$(DESIGN_BUDGET)" \
		'{ printf "%6d DESIGN.md bytes (budget %d)\n", $$1, budget; \
		   if ($$1 > budget) { print "loc: DESIGN.md over DESIGN_BUDGET"; exit 1 } }'

# dead lists the exported funcs and methods under internal/ that no
# non-test file under internal/, cmd/, examples/ or bench/ mentions by
# name (scripts/dead: go/parser only, name-based) and fails above
# DEAD_BUDGET — a ratchet like LOC_BUDGET: lower it when a PR deletes
# some. What is left is mostly the paper's inventory (wire's unsent
# Query/Record decoders, gnp's Register/Forget), cross-package test
# helpers, and the schedule text reader the replay tests use.
DEAD_BUDGET ?= 17
dead:
	@$(GO) run ./scripts/dead -budget $(DEAD_BUDGET)

# soak-scale is the in-memory million-member ladder: a N=100k scale
# soak (the key plane alone: key tree and member keyrings, 1% churn per
# interval, 256 keyrings spot-checked against the tree at every
# boundary) runs in CI, and its report must be the one
# cmd/rekeysim/testdata/soak-stdout.md5 holds; the full N=1,000,000 soak
# is the manual acceptance run:
#
#	$(GO) run ./cmd/rekeysim scale -n 1000000
#
soak-scale:
	mkdir -p results/soaks
	$(GO) run ./cmd/rekeysim scale -n 100000 -intervals 6 > results/soaks/scale
	cd results/soaks && grep ' scale$$' ../../cmd/rekeysim/testdata/soak-stdout.md5 | md5sum -c

# soak-multigroup is the multi-group tenancy soak (internal/grouphost):
# 16 groups — a 100k-join flash crowd, a 10k mass join+leave, and 14
# full-protocol groups (half under Appendix B cluster rekeying) on one
# shared GT-ITM topology — multiplexed over the process-wide fan-out
# with staggered rekey boundaries. Every interval runs the five paper
# auditors per group, then the whole host replays inline (GOMAXPROCS 1)
# and the reports must be byte-identical. The report must also be the
# one cmd/rekeysim/testdata/soak-stdout.md5 holds.
soak-multigroup:
	mkdir -p results/soaks
	$(GO) run ./cmd/rekeysim tenancy -groups 16 -flash-joins 100000 -mass-churn 10000 -intervals 4 > results/soaks/multigroup
	cd results/soaks && grep ' multigroup$$' ../../cmd/rekeysim/testdata/soak-stdout.md5 | md5sum -c

# soak-slo is the ops-plane gate: a multi-group tenancy soak with the
# per-tenant SLO engine streaming one "slo" record per group per rekey
# boundary. The soak exits non-zero on any page verdict, rekeystat
# schema-checks the stream (per-group boundary ordering, verdict enum,
# objective good<=total) and renders it, and the Prometheus
# exposition golden test pins the /metrics wire format.
soak-slo:
	mkdir -p results
	$(GO) run ./cmd/rekeysim tenancy -groups 8 -flash-joins 20000 -mass-churn 2000 -intervals 3 -metrics-out results/soak-slo.jsonl
	$(GO) run ./cmd/rekeystat -jsonl results/soak-slo.jsonl
	$(GO) test ./internal/obs/expose -run Golden -count=1
