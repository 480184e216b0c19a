package grouphost

import (
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
	g *core.Group
	// s plays the schedule: index i lives on shared-topology host
	// hostBase+1+i, hostBase being this group's key server.
	s *core.Session

	lastMsg    *keytree.Message
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
	})
	if err != nil {
		return nil, err
	}
	return &netTenant{
		g:          g,
		s:          core.NewSession(g),
		lastEpochs: make(map[string]uint64),
	}, nil
}

func (t *netTenant) Size() int { return t.g.Size() }

func (t *netTenant) Apply(ev workload.Event) error { return t.s.Apply(ev) }

func (t *netTenant) Flush(boundary time.Duration) (int, error) {
	t.intervalStart, t.boundary = t.boundary, boundary
	msg, rep, err := t.s.EndInterval()
	if err != nil {
		return 0, err
	}
	t.lastMsg, t.lastRep = msg, rep
	return msg.Cost(), nil
}

// Evidence gathers what the boundary left behind for the auditors (see
// chaos.Evidence). The groups are small enough for a full Definition 3
// sweep after every batch; the simulator transport is reliable, so a
// distribute is fault-free and its hop log carries every copy made,
// split per encryption, so the log is checked against the message. The
// only delivery chain that can dangle here is the join-time unicast: a
// member that should keep a keyring (everyone, or the leaders in cluster
// mode) and has none was never keyed, so the ladder record settles each
// holder of a keyring on the unicast rung and leaves the others open.
func (t *netTenant) Evidence() *chaos.Evidence {
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
		ev.Message = t.lastMsg.Encryptions
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
	ev.Ladder, ev.Owed = &recovery.Outcome{}, holders
	for _, id := range holders {
		if _, ok := t.g.KeyringOf(id); ok {
			ev.Ladder.Settle(id, recovery.ByUnicast, 0)
		}
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

// keyTenant is a KeyPlane group: the scale soak's chaos.KeyTenant.
type keyTenant struct{ *chaos.KeyTenant }

// newKeyTenant builds the key plane for a group of up to hosts schedule
// hosts over a base-32 ID space sized to them, so every schedule host
// index maps directly to ident.FromInt; seed is the group's key-material
// seed. Each audit spot-checks 256 keyrings (all of them in a smaller
// group).
func newKeyTenant(hosts int, seed []byte, reg *obs.Registry) (keyTenant, error) {
	t, err := chaos.NewKeyTenant(ident.Base32For(hosts), seed, keytree.Opts{Obs: reg, CapacityHint: hosts}, 0, 256)
	return keyTenant{t}, err
}

func (t keyTenant) finish(gr *GroupReport) {
	gr.Joins, gr.Leaves = t.Joins, t.Leaves
	gr.FinalMembers = t.Size()
	gr.KeyringDigest = t.World().Digest()
}
