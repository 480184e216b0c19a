// Package grouphost multiplexes many secure groups on one host — the
// production shape of the paper's key server (ROADMAP item 4): a
// single shared topology, the process-wide regen/apply fan-out
// (internal/work) every group's pipeline already runs through, a single
// obs registry with per-group namespaces, and a global rekey scheduler
// that staggers the groups' interval boundaries so their crypto bursts
// do not land on the same instant.
//
// Groups come in two profiles:
//
//   - NetPlane — a full core.Group over the shared vnet topology:
//     distributed ID assignment, neighbor tables, T-mesh multicast
//     delivery of the split rekey message. The real protocol, bounded
//     to memberships the O(N) overlay join can sustain.
//   - KeyPlane — key tree + member keyrings only, the flat layout the
//     scale soak uses, for the workloads the overlay cannot reach:
//     a ≥100k flash-crowd interval or a CKCS-style mass join+leave.
//
// Determinism contract: every group's schedule, rekey messages, and
// final keyrings are a pure function of (its spec, its seed). The
// shared fan-out preserves the repo's disjoint-write discipline and
// the scheduler processes boundaries one at a time, so the per-group
// reports are byte-identical at any width and any boundary interleaving
// (OrderSeed) — the multi-group determinism tests pin both.
package grouphost

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"tmesh/internal/chaos"
	"tmesh/internal/obs"
	"tmesh/internal/obs/slo"
	"tmesh/internal/vnet"
	"tmesh/internal/work"
	"tmesh/internal/workload"
)

// Profile selects how a group is materialised.
type Profile int

const (
	// NetPlane runs a full core.Group over the shared topology.
	NetPlane Profile = iota + 1
	// KeyPlane runs the key-management core only (tree + keyrings),
	// sized for flash-crowd memberships.
	KeyPlane
)

func (p Profile) String() string {
	switch p {
	case NetPlane:
		return "net"
	case KeyPlane:
		return "key"
	default:
		return fmt.Sprintf("profile(%d)", int(p))
	}
}

// GroupSpec describes one tenant group.
type GroupSpec struct {
	// Name labels the group in the report and its obs namespace;
	// empty defaults to "g<index>".
	Name string
	// Profile selects the materialisation; zero means NetPlane.
	Profile Profile
	// Workload drives the group's membership schedule (its Seed and
	// Interval included); the group's rekey boundaries land every
	// Workload.Interval on its own staggered timeline.
	Workload workload.Config
	// ClusterRekeying enables the Appendix B heuristic (NetPlane only).
	ClusterRekeying bool
	// Verify spot-checks this many member keyrings against the
	// server tree at each audit (KeyPlane; 0 defaults to 64).
	Verify int
}

// Config assembles a Host.
type Config struct {
	// Groups are the tenant groups; at least one.
	Groups []GroupSpec
	// Seed drives host-level randomness (topology, per-group crypto
	// seeds); each group's schedule comes from its own Workload.Seed.
	Seed int64
	// Stagger offsets consecutive groups' interval grids: group i's
	// boundaries land at i*Stagger + k*Interval. It shifts only the
	// global processing order, never a group's own timeline, so
	// per-group output is independent of the stagger.
	Stagger time.Duration
	// OrderSeed deterministically shuffles the processing order of
	// boundaries that land on the same instant. Per-group reports are
	// invariant under it (the interleaving determinism test pins this).
	OrderSeed int64
	// Obs is the optional shared telemetry registry; each group
	// reports under its own "<name>_" namespace.
	Obs *obs.Registry
	// Sink, when non-nil, receives one "slo" JSONL record per group per
	// boundary. The records are deterministic (counts and verdicts
	// only), so streams from seed-identical runs byte-compare.
	Sink *obs.Sink
	// Out, when non-nil, receives one progress line per processed
	// boundary (never part of the deterministic report).
	Out io.Writer
}

// tenant is the scheduler's view of one group: either plane behind the
// same stepping interface.
type tenant interface {
	// name returns the group's report label.
	name() string
	// pump applies schedule events with At strictly before the local
	// cutoff.
	pump(until time.Duration) error
	// size returns the current membership count.
	size() int
	// flush ends the group's current rekey interval and returns its
	// cost.
	flush() (cost int, err error)
	// evidence gathers what the flush left behind for the five paper
	// auditors (chaos.Audit); a nil field is a check whose precondition
	// the profile lacks, which passes vacuously.
	evidence() *chaos.Evidence
	// finish closes out the group and fills its report entry.
	finish(gr *GroupReport)
}

// boundary is one scheduled rekey boundary of one group.
type boundary struct {
	at    time.Duration // global virtual time
	local time.Duration // group-local cutoff (k*Interval)
	g     int
	prio  int // OrderSeed tie-break among equal instants
}

// Run builds the host and drives every group through its schedule.
func Run(cfg Config) (*Report, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("grouphost: no groups configured")
	}
	if cfg.Stagger < 0 {
		return nil, fmt.Errorf("grouphost: negative stagger %v", cfg.Stagger)
	}

	// Generate every schedule first: host counts size the shared
	// topology, and a spec error should surface before any crypto runs.
	schedules := make([]*workload.Schedule, len(cfg.Groups))
	netHosts := 0
	for i, spec := range cfg.Groups {
		if spec.Workload.Interval <= 0 {
			return nil, fmt.Errorf("grouphost: group %d: workload interval must be positive", i)
		}
		s, err := workload.Generate(spec.Workload)
		if err != nil {
			return nil, fmt.Errorf("grouphost: group %d: %w", i, err)
		}
		if len(s.Events) == 0 {
			return nil, fmt.Errorf("grouphost: group %d: empty schedule", i)
		}
		schedules[i] = s
		if profileOf(spec) == NetPlane {
			netHosts += 1 + s.Hosts // per-group key server + members
		}
	}

	// One shared topology for every NetPlane group (the soak topology:
	// 2x2x2 GT-ITM, 120 routers); KeyPlane groups are key-state only and
	// attach nowhere.
	var net vnet.Network
	if netHosts > 0 {
		top, err := vnet.NewGTITM(vnet.SoakGTITMConfig(), netHosts, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("grouphost: shared topology: %w", err)
		}
		net = top
	}

	rep := &Report{Seed: cfg.Seed, StaggerNS: int64(cfg.Stagger), PoolWidth: work.Width()}
	tenants := make([]tenant, len(cfg.Groups))
	slos := make([]*slo.Engine, len(cfg.Groups))
	var agenda []boundary
	hostBase := 0
	for i, spec := range cfg.Groups {
		label := spec.Name
		if label == "" {
			label = fmt.Sprintf("g%d", i)
		}
		groupObs := cfg.Obs.Namespace(label + "_")
		var t tenant
		var err error
		switch profileOf(spec) {
		case NetPlane:
			t, err = newNetTenant(label, spec, schedules[i], net, vnet.HostID(hostBase), cfg.Seed, groupObs)
			hostBase += 1 + schedules[i].Hosts
		case KeyPlane:
			seed := fmt.Sprintf("grouphost-%s-%d", label, groupSeed(cfg.Seed, label))
			t, err = newKeyTenant(label, spec.Verify, schedules[i], []byte(seed), groupObs)
		default:
			err = fmt.Errorf("unknown profile %d", spec.Profile)
		}
		if err != nil {
			return nil, fmt.Errorf("grouphost: group %s: %w", label, err)
		}
		tenants[i] = t
		// The SLO engine always runs: its inputs (membership counts,
		// audit verdicts, rekey costs) are deterministic, so verdicts
		// stay in the report whether or not the ops plane is on.
		slos[i] = slo.New(slo.Config{Group: label, Sink: cfg.Sink, Obs: groupObs})

		// The group's boundaries: enough to cover the schedule tail
		// (events land strictly before their boundary: core.Session's
		// rule, which the KeyPlane tenant follows too).
		last := schedules[i].Events[len(schedules[i].Events)-1].At
		n := int(last/spec.Workload.Interval) + 1
		offset := time.Duration(i) * cfg.Stagger
		for k := 1; k <= n; k++ {
			local := time.Duration(k) * spec.Workload.Interval
			agenda = append(agenda, boundary{at: offset + local, local: local, g: i})
		}
		rep.Groups = append(rep.Groups, GroupReport{
			Name:    label,
			Profile: profileOf(spec).String(),
		})
	}

	// Equal-instant boundaries process in OrderSeed order; everything
	// else strictly by time. Per-group state never crosses tenants, so
	// this order must not leak into any group's report — the
	// interleaving test runs several OrderSeeds and byte-compares.
	prio := rand.New(rand.NewSource(cfg.OrderSeed)).Perm(len(agenda))
	for i := range agenda {
		agenda[i].prio = prio[i]
	}
	sort.Slice(agenda, func(i, j int) bool {
		if agenda[i].at != agenda[j].at {
			return agenda[i].at < agenda[j].at
		}
		return agenda[i].prio < agenda[j].prio
	})

	for _, b := range agenda {
		t := tenants[b.g]
		gr := &rep.Groups[b.g]
		if err := t.pump(b.local); err != nil {
			return nil, fmt.Errorf("grouphost: group %s: %w", t.name(), err)
		}
		cost, err := t.flush()
		if err != nil {
			return nil, fmt.Errorf("grouphost: group %s interval %d: %w", t.name(), gr.Intervals+1, err)
		}
		gr.Intervals++
		gr.TotalCost += int64(cost)
		if cost > gr.MaxCost {
			gr.MaxCost = cost
		}
		// SLO boundary: a coverage/delivery violation is a member the
		// service failed to key; other auditors flag structural issues
		// and stay out of the delivery SLI. Latency samples only exist
		// where a lossy transport runs (the chaos soak); the simulator
		// transports here are reliable and synchronous.
		verdicts, _ := chaos.Audit(t.evidence(), nil)
		missed := 0
		for _, v := range verdicts {
			for _, detail := range v.Violations {
				gr.Violations = append(gr.Violations, fmt.Sprintf("interval %d: %s: %s", gr.Intervals, v.Name, detail))
			}
			if v.Name == "coverage" || v.Name == "delivery" {
				missed += len(v.Violations)
			}
		}
		gr.Audits += len(verdicts)
		members := t.size()
		srec := slos[b.g].Observe(slo.Boundary{
			Boundary:  gr.Intervals,
			Members:   members,
			Expected:  members,
			Delivered: max(members-missed, 0),
			RekeyCost: cost,
		})
		switch srec.Verdict {
		case "page":
			gr.SLOPage++
		case "warn":
			gr.SLOWarn++
		default:
			gr.SLOOK++
		}
		if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, "t=%v %s interval %d: cost=%d violations=%d slo=%s\n",
				b.at, t.name(), gr.Intervals, cost, len(gr.Violations), srec.Verdict)
		}
	}

	for i, t := range tenants {
		t.finish(&rep.Groups[i])
	}
	return rep, nil
}

func profileOf(spec GroupSpec) Profile {
	if spec.Profile == 0 {
		return NetPlane
	}
	return spec.Profile
}

// groupSeed derives a per-group crypto seed from the host seed and the
// group label, so tenants never share key material.
func groupSeed(hostSeed int64, label string) int64 {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	return hostSeed ^ h
}
