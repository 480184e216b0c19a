package grouphost

import (
	"fmt"
	"sort"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/chaos"
	"tmesh/internal/core"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/recovery"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
	"tmesh/internal/workload"
)

// ---------------------------------------------------------------------
// NetPlane: a full core.Group on the shared topology.

// netAssign is the ID-space configuration NetPlane tenants run under:
// 16^3 IDs is ample for the memberships the O(N) overlay join can
// sustain, and the short thresholds keep the synchronous assignment
// rounds cheap.
func netAssign() assign.Config {
	return assign.Config{
		Params:        ident.Params{Digits: 3, Base: 16},
		Thresholds:    []time.Duration{150 * time.Millisecond, 10 * time.Millisecond},
		Percentile:    90,
		CollectTarget: 4,
	}
}

type netTenant struct {
	label string
	g     *core.Group
	// s plays the schedule: index i lives on shared-topology host
	// hostBase+1+i, hostBase being this group's key server.
	s *core.Session

	lastRep    *split.Report
	lastEpochs map[string]uint64
	// boundary and intervalStart are the current and the previous
	// boundary's local time: the interval the next audit covers.
	boundary, intervalStart time.Duration
}

func newNetTenant(label string, spec GroupSpec, net vnet.Network, hostBase vnet.HostID, hostSeed int64, reg *obs.Registry) (tenant, error) {
	g, err := core.NewGroup(core.Config{
		Net:             net,
		ServerHost:      hostBase,
		Assign:          netAssign(),
		K:               2,
		Seed:            groupSeed(hostSeed, label),
		ClusterRekeying: spec.ClusterRekeying,
		Obs:             reg,
		Label:           label,
	})
	if err != nil {
		return nil, err
	}
	return &netTenant{
		label:      label,
		g:          g,
		s:          core.NewSession(g),
		lastEpochs: make(map[string]uint64),
	}, nil
}

func (t *netTenant) name() string { return t.label }

func (t *netTenant) size() int { return t.g.Size() }

func (t *netTenant) apply(ev workload.Event) error { return t.s.Apply(ev) }

func (t *netTenant) flush(boundary time.Duration) (int, error) {
	t.intervalStart, t.boundary = t.boundary, boundary
	msg, rep, err := t.s.EndInterval()
	if err != nil {
		return 0, err
	}
	t.lastRep = rep
	return msg.Cost(), nil
}

// evidence gathers what the boundary left behind for the auditors (see
// chaos.Evidence). The groups are small enough for a full Definition 3
// sweep after every batch; the simulator transport is reliable, so a
// distribute is fault-free and its hop log carries every copy made. The
// only delivery chain that can dangle here is the join-time unicast: a
// member that should keep a keyring (everyone, or the leaders in cluster
// mode) and has none was never keyed, which is what RungOf reports.
func (t *netTenant) evidence() *chaos.Evidence {
	ids := t.memberIDs()
	tree, holders := t.g.Tree(), ids
	ev := &chaos.Evidence{
		Dir:           t.g.Dir(),
		FaultFree:     true,
		LastEpoch:     t.lastEpochs,
		IntervalStart: t.intervalStart,
	}
	if m := t.g.Clusters(); m != nil {
		ev.Clusters = m
		tree, holders = m.Tree(), nil
		for _, id := range ids {
			if m.IsLeader(id) {
				holders = append(holders, id)
			}
		}
	}
	if t.lastRep != nil {
		ev.Hops = t.lastRep.Deliveries
		copies := make(map[string]int, len(ids))
		for _, d := range ev.Hops {
			copies[d.To.Key()]++
		}
		for _, id := range ids {
			ev.Copies = append(ev.Copies, chaos.Copy{ID: id, N: copies[id.Key()]})
		}
	}
	// In cluster mode the group key reaches non-leaders only on the
	// leader unicasts that follow a multicast, so on a cost-0 interval
	// (joins absorbed into existing clusters) the old keys stand and
	// there is nothing to compare until the next distribute.
	if ev.Clusters == nil || t.lastRep != nil {
		ev.Tree, ev.Keyed, ev.GroupKeyOf = tree, ids, t.g.GroupKeyOf
	}
	ev.Ladder = &chaos.Ladder{
		Expected: holders,
		RungOf: func(id ident.ID) (recovery.Rung, bool) {
			_, ok := t.g.KeyringOf(id)
			return recovery.ByUnicast, ok
		},
	}
	return ev
}

// memberIDs returns the current membership in canonical ID order.
func (t *netTenant) memberIDs() []ident.ID {
	ids := t.g.Dir().IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	return ids
}

func (t *netTenant) finish(gr *GroupReport) {
	st := t.s.Stats()
	gr.Joins, gr.Leaves = st.Joins, st.Leaves
	gr.FinalMembers = st.FinalSize
	gk, ok := t.g.ServerGroupKey()
	gr.KeyringDigest = core.KeyringDigest(gk, ok, t.memberIDs(), t.g.GroupKeyOf)
}

// ---------------------------------------------------------------------
// KeyPlane: key tree + member keyrings, the flash-crowd profile.

type keyTenant struct {
	label  string
	params ident.Params
	world  *core.KeyPlane
	verify int // keyrings sampled per audit

	pending       keytree.Pending
	joining       map[ident.ID]bool // joins in pending
	active        map[ident.ID]bool // keyed members that have not departed since
	joins, leaves int
	roster        []ident.ID // membership after the last flush, in ID order
}

// newKeyTenant builds the key-plane world for a group of up to hosts
// schedule hosts; seed is the group's key-material seed, verify the
// keyrings sampled per audit (0 defaults to 64).
func newKeyTenant(label string, verify, hosts int, seed []byte, reg *obs.Registry) (*keyTenant, error) {
	if verify <= 0 {
		verify = 64
	}
	// Size a base-32 ID space to the schedule's host count: every
	// schedule host index maps directly to ident.FromInt.
	params := ident.Params{Digits: 1, Base: 32}
	for capacity := 32; capacity < hosts; capacity *= 32 {
		params.Digits++
	}
	world, err := core.NewKeyPlane(params, seed, keytree.Opts{
		Obs:          reg,
		CapacityHint: hosts,
		Label:        label,
	}, 0)
	if err != nil {
		return nil, err
	}
	return &keyTenant{
		label:   label,
		params:  params,
		world:   world,
		verify:  verify,
		joining: make(map[ident.ID]bool),
		active:  make(map[ident.ID]bool, hosts),
	}, nil
}

func (t *keyTenant) name() string { return t.label }

func (t *keyTenant) size() int { return len(t.active) }

// apply queues one event into the interval's batch. Every schedule host
// index maps directly to an ID, so a rejoin reuses its ID under a fresh
// key epoch; a crash is a leave in the tree.
func (t *keyTenant) apply(ev workload.Event) error {
	host := ev.Subject()
	id, err := ident.FromInt(t.params, host)
	if err != nil {
		return fmt.Errorf("schedule host %d: %w", host, err)
	}
	switch ev.Kind {
	case workload.Join:
		if t.active[id] || t.joining[id] {
			return fmt.Errorf("join of schedule host %d, already a member", host)
		}
		t.pending.Join(id)
		t.joining[id] = true
		t.joins++
	case workload.Leave, workload.Crash:
		t.leaves++
		if t.pending.Leave(id) {
			delete(t.joining, id)
			return nil // joined and left between two boundaries: never keyed
		}
		if !t.active[id] {
			return fmt.Errorf("leave of absent host %d", host)
		}
		delete(t.active, id)
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
	return nil
}

// flush rekeys the world over the pending churn — one flash-crowd
// interval is a single call.
func (t *keyTenant) flush(time.Duration) (int, error) {
	// The survivors are the membership before the joins land (apply
	// already dropped the leavers).
	joins, _, cost, _, err := t.world.Rekey(&t.pending, t.members())
	if err != nil {
		return 0, err
	}
	for _, id := range joins {
		t.active[id] = true
	}
	clear(t.joining)
	t.roster = t.members()
	return cost, nil
}

// members returns the active membership in ID order.
func (t *keyTenant) members() []ident.ID {
	ids := make([]ident.ID, 0, len(t.active))
	for id := range t.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	return ids
}

// evidence is the key plane's: sampled keyrings against the server tree
// (see chaos.KeyPlaneEvidence).
func (t *keyTenant) evidence() *chaos.Evidence {
	return chaos.KeyPlaneEvidence(t.world, t.roster, t.verify)
}

func (t *keyTenant) finish(gr *GroupReport) {
	gr.Joins, gr.Leaves = t.joins, t.leaves
	gr.FinalMembers = len(t.roster)
	gr.KeyringDigest = t.world.Digest(t.roster)
}
