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
	"tmesh/internal/memberstate"
	"tmesh/internal/obs"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
	"tmesh/internal/work"
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
	label    string
	spec     GroupSpec
	sched    *workload.Schedule
	g        *core.Group
	hostBase vnet.HostID

	cursor int
	idOf   map[int]ident.ID
	joins  int
	leaves int

	lastRep    *split.Report
	lastEpochs map[string]uint64
}

func newNetTenant(label string, spec GroupSpec, sched *workload.Schedule, net vnet.Network, hostBase vnet.HostID, hostSeed int64, reg *obs.Registry) (tenant, error) {
	g, err := core.NewGroup(core.Config{
		Net:             net,
		ServerHost:      hostBase,
		Assign:          netAssign(),
		K:               2,
		Seed:            groupSeed(hostSeed, label),
		RealCrypto:      true,
		ClusterRekeying: spec.ClusterRekeying,
		Obs:             reg,
		Label:           label,
	})
	if err != nil {
		return nil, err
	}
	return &netTenant{
		label:      label,
		spec:       spec,
		sched:      sched,
		g:          g,
		hostBase:   hostBase,
		idOf:       make(map[int]ident.ID),
		lastEpochs: make(map[string]uint64),
	}, nil
}

func (t *netTenant) name() string { return t.label }

func (t *netTenant) size() int { return t.g.Size() }

// pump applies schedule events strictly before the local cutoff.
// Schedule host index i lives on shared-topology host
// hostBase + 1 + i (hostBase is this group's key server).
func (t *netTenant) pump(until time.Duration) error {
	for t.cursor < len(t.sched.Events) {
		ev := t.sched.Events[t.cursor]
		if ev.At >= until {
			return nil
		}
		t.cursor++
		switch ev.Kind {
		case workload.Join:
			id, _, err := t.g.Join(t.hostBase+1+vnet.HostID(ev.Host), ev.At)
			if err != nil {
				return fmt.Errorf("join of schedule host %d: %w", ev.Host, err)
			}
			t.idOf[ev.Host] = id
			t.joins++
		case workload.Leave:
			id, ok := t.idOf[ev.Victim]
			if !ok {
				return fmt.Errorf("leave of never-joined host %d", ev.Victim)
			}
			if err := t.g.Leave(id); err != nil {
				return fmt.Errorf("leave of %v: %w", id, err)
			}
			delete(t.idOf, ev.Victim)
			t.leaves++
		default:
			return fmt.Errorf("unknown event kind %d", ev.Kind)
		}
	}
	return nil
}

func (t *netTenant) flush() (int, error) {
	msg, err := t.g.ProcessInterval()
	if err != nil {
		return 0, err
	}
	t.lastRep = nil
	if t.g.Size() > 0 && msg.Cost() > 0 {
		rep, err := t.g.DistributeRekey(msg)
		if err != nil {
			return 0, err
		}
		t.lastRep = rep
	}
	return msg.Cost(), nil
}

// audit runs the five invariant checks against the live group. The
// simulator transport is reliable here, so the ladder check verifies
// the join-unicast chains instead of recovery rungs; everything else
// maps one-to-one onto the chaos auditors.
func (t *netTenant) audit() []string {
	var vs []string

	// k-consistency: Definition 3 must hold over the whole directory
	// after every batch (the groups are small enough for full sweeps).
	if err := t.g.Dir().CheckConsistency(); err != nil {
		vs = append(vs, fmt.Sprintf("k-consistency: %v", err))
	}

	// delivery: Theorems 1 and 2 over the last multicast's delivery
	// log — every copy went to a current member, no member received a
	// second copy, and a member forwarding at level l carried only
	// encryptions relevant to its level-l subtree (forwarders
	// legitimately hold more than their own path; off-subtree is the
	// violation).
	if t.lastRep != nil {
		digits := t.g.Params().Digits
		seen := make(map[string]bool)
		for _, d := range t.lastRep.Deliveries {
			if _, ok := t.g.Dir().Record(d.To); !ok {
				vs = append(vs, fmt.Sprintf("delivery: copy to non-member %v", d.To))
				continue
			}
			if seen[d.To.Key()] {
				vs = append(vs, fmt.Sprintf("delivery: %v received a second copy (Theorem 1: at most one)", d.To))
			}
			seen[d.To.Key()] = true
			level := d.Level
			if level < 0 {
				level = 0
			}
			if level > digits {
				level = digits
			}
			w := d.To.Prefix(level)
			for _, enc := range d.Encryptions {
				if !enc.RelevantTo(w) {
					vs = append(vs, fmt.Sprintf("delivery: %v forwarding at level %d received encryption for unrelated subtree %v", d.To, d.Level, enc.ID))
				}
			}
		}
	}

	// coverage: Lemma 3 / Theorem 2 — every current member ends the
	// interval holding the server's group key (multicast apply, leader
	// unicast, or join-time path keys; the transport is reliable, so
	// no ladder rung excuses a miss). In cluster mode the key reaches
	// non-leaders only on the leader unicasts that follow a multicast,
	// so on a cost-0 interval (joins absorbed into existing clusters)
	// the old keys stand and the check waits for the next distribute —
	// the same early-out the chaos coverage auditor takes when no
	// churn reached the tree.
	if t.g.Clusters() == nil || t.lastRep != nil {
		serverGK, haveGK := t.g.ServerGroupKey()
		if haveGK {
			for _, id := range t.memberIDs() {
				gk, ok := t.g.GroupKeyOf(id)
				if !ok || !gk.Equal(serverGK) {
					vs = append(vs, fmt.Sprintf("coverage: member %v does not hold the interval's group key", id))
				}
			}
		} else if t.g.Size() > 0 {
			vs = append(vs, "coverage: non-empty group has no server group key")
		}
	}

	// cluster: Appendix B — unique live leaders with monotone epochs.
	// Vacuously true outside cluster mode.
	if m := t.g.Clusters(); m != nil {
		for _, p := range m.Prefixes() {
			rec, ok := m.Leader(p)
			if !ok {
				vs = append(vs, fmt.Sprintf("cluster: %v has no leader", p))
				continue
			}
			if _, present := t.g.Dir().Record(rec.ID); !present {
				vs = append(vs, fmt.Sprintf("cluster: leader %v of %v is not a member", rec.ID, p))
			}
			if ep, ok := m.Epoch(p); ok {
				if last, seen := t.lastEpochs[p.Key()]; seen && ep < last {
					vs = append(vs, fmt.Sprintf("cluster: epoch of %v went backwards (%d -> %d)", p, last, ep))
				}
				t.lastEpochs[p.Key()] = ep
			}
		}
	}

	// ladder: with a reliable transport the only delivery chains are
	// the join-time unicasts — every member that keeps a keyring
	// (all members, or the leaders in cluster mode) must actually
	// have one; a nil keyring is a dangling chain.
	for _, id := range t.memberIDs() {
		if m := t.g.Clusters(); m != nil && !m.IsLeader(id) {
			continue
		}
		if _, ok := t.g.KeyringOf(id); !ok {
			vs = append(vs, fmt.Sprintf("ladder: member %v has no keyring", id))
		}
	}
	return vs
}

// memberIDs returns the current membership in canonical ID order.
func (t *netTenant) memberIDs() []ident.ID {
	ids := t.g.Dir().IDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
	return ids
}

func (t *netTenant) finish(gr *GroupReport) error {
	gr.Joins, gr.Leaves = t.joins, t.leaves
	gr.FinalMembers = t.g.Size()
	d := newDigest()
	if gk, ok := t.g.ServerGroupKey(); ok {
		d.key("server", gk)
	}
	for _, id := range t.memberIDs() {
		if gk, ok := t.g.GroupKeyOf(id); ok {
			d.key(id.Key(), gk)
		} else {
			d.miss(id.Key())
		}
	}
	gr.KeyringDigest = d.sum()
	return nil
}

// ---------------------------------------------------------------------
// KeyPlane: key tree + member keyrings, the flash-crowd profile.

type keyTenant struct {
	label  string
	spec   GroupSpec
	sched  *workload.Schedule
	params ident.Params
	tree   *keytree.Tree
	store  *memberstate.Store
	ap     *core.IndexedApplier

	cursor        int
	pendingJoins  []int        // schedule host indices, arrival order
	pendingSet    map[int]bool // pendingJoins not cancelled by a same-interval leave
	pendingLeaves []int
	activeIdx     map[int]bool
	joins, leaves int

	// Per-flush state the auditors consume.
	lastCost      int
	lastUpdated   int64
	lastSurvivors int
}

func newKeyTenant(label string, spec GroupSpec, sched *workload.Schedule, hostSeed int64, reg *obs.Registry) (tenant, error) {
	// Size a base-32 ID space to the schedule's host count: every
	// schedule host index maps directly to ident.FromInt.
	params := ident.Params{Digits: 1, Base: 32}
	for capacity := 32; capacity < sched.Hosts; capacity *= 32 {
		params.Digits++
	}
	seed := []byte(fmt.Sprintf("grouphost-%s-%d", label, groupSeed(hostSeed, label)))
	tree, err := keytree.New(params, seed, keytree.Opts{
		RealCrypto:   true,
		Obs:          reg,
		CapacityHint: sched.Hosts,
		Label:        label,
	})
	if err != nil {
		return nil, err
	}
	store := memberstate.NewStoreSized(sched.Hosts)
	return &keyTenant{
		label:      label,
		spec:       spec,
		sched:      sched,
		params:     params,
		tree:       tree,
		store:      store,
		ap:         core.NewIndexedApplier(params, store, 0, label),
		pendingSet: make(map[int]bool),
		activeIdx:  make(map[int]bool, sched.Hosts),
	}, nil
}

func (t *keyTenant) name() string { return t.label }

func (t *keyTenant) size() int { return len(t.activeIdx) }

func (t *keyTenant) pump(until time.Duration) error {
	for t.cursor < len(t.sched.Events) {
		ev := t.sched.Events[t.cursor]
		if ev.At >= until {
			return nil
		}
		t.cursor++
		switch ev.Kind {
		case workload.Join:
			t.pendingJoins = append(t.pendingJoins, ev.Host)
			t.pendingSet[ev.Host] = true
			t.joins++
		case workload.Leave:
			t.leaves++
			if t.pendingSet[ev.Victim] {
				// Joined and left between the same two boundaries: the
				// pair cancels (mirrors core.Group.Leave of a pending
				// join) and the batch never keys the member.
				delete(t.pendingSet, ev.Victim)
				continue
			}
			if !t.activeIdx[ev.Victim] {
				return fmt.Errorf("leave of absent host %d", ev.Victim)
			}
			t.pendingLeaves = append(t.pendingLeaves, ev.Victim)
			delete(t.activeIdx, ev.Victim)
		default:
			return fmt.Errorf("unknown event kind %d", ev.Kind)
		}
	}
	return nil
}

// flush batches the pending churn through the tree, applies the rekey
// message to every survivor through the indexed applier, and unicasts path
// keys to the joiners — one flash-crowd interval is a single call.
func (t *keyTenant) flush() (int, error) {
	joinIdx := t.pendingJoins[:0:0]
	for _, i := range t.pendingJoins {
		if t.pendingSet[i] {
			joinIdx = append(joinIdx, i)
		}
	}
	leaveIdx := t.pendingLeaves
	t.pendingJoins, t.pendingLeaves = nil, nil
	clear(t.pendingSet)
	sort.Ints(joinIdx)
	sort.Ints(leaveIdx)

	joins, err := t.idsOf(joinIdx)
	if err != nil {
		return 0, err
	}
	leaves, err := t.idsOf(leaveIdx)
	if err != nil {
		return 0, err
	}
	for _, id := range leaves {
		t.store.Remove(id)
	}

	// Survivors snapshot before the joins land: they apply the
	// multicast message; joiners get join-time unicasts below.
	survivors, err := t.members()
	if err != nil {
		return 0, err
	}
	var plan *keytree.BatchPlan
	obs.WithStage(t.label, "mark", func() {
		plan, err = t.tree.Mark(joins, leaves)
	})
	if err != nil {
		return 0, err
	}
	var msg *keytree.Message
	obs.WithStage(t.label, "regen", func() {
		msg, err = t.tree.Regenerate(plan, work.Width())
	})
	if err != nil {
		return 0, err
	}
	var updated int64
	obs.WithStage(t.label, "apply", func() {
		updated, err = t.ap.Apply(msg, survivors)
	})
	if err != nil {
		return 0, err
	}
	obs.WithStage(t.label, "deliver", func() {
		err = t.deliverJoins(joins)
	})
	if err != nil {
		return 0, err
	}
	for _, i := range joinIdx {
		t.activeIdx[i] = true
	}
	t.lastCost = msg.Cost()
	t.lastUpdated = updated
	t.lastSurvivors = len(survivors)
	return msg.Cost(), nil
}

// deliverJoins unicasts join-time path keys: the key plane's delivery
// stage (there is no multicast transport in this profile).
func (t *keyTenant) deliverJoins(joins []ident.ID) error {
	for _, id := range joins {
		path, err := t.tree.PathKeys(id)
		if err != nil {
			return err
		}
		kr, err := keytree.NewKeyring(t.params, id, path)
		if err != nil {
			return err
		}
		t.store.PutKeyring(id, kr)
	}
	return nil
}

func (t *keyTenant) idsOf(indices []int) ([]ident.ID, error) {
	out := make([]ident.ID, len(indices))
	for i, idx := range indices {
		id, err := idFromIndex(t.params, idx)
		if err != nil {
			return nil, fmt.Errorf("schedule host %d: %w", idx, err)
		}
		out[i] = id
	}
	return out, nil
}

// members returns the active membership in canonical ID order
// (FromInt preserves numeric order, so sorting the indices suffices).
func (t *keyTenant) members() ([]ident.ID, error) {
	idx := make([]int, 0, len(t.activeIdx))
	for i := range t.activeIdx {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return t.idsOf(idx)
}

// audit checks the five invariants on the key plane. The overlay,
// cluster heuristic, and recovery ladder do not exist in this profile,
// so their checks pass vacuously (exactly like the chaos cluster
// auditor over zero clusters); coverage — every keyring agreeing with
// the server tree — is the real check at flash-crowd scale.
func (t *keyTenant) audit() []string {
	var vs []string
	members, err := t.members()
	if err != nil {
		return []string{fmt.Sprintf("coverage: %v", err)}
	}

	// delivery: a non-trivial rekey over survivors must have installed
	// keys (the indexed applier handing every survivor its path
	// entries); zero installs would mean the multicast reached no one.
	if t.lastCost > 0 && t.lastSurvivors > 0 && t.lastUpdated == 0 {
		vs = append(vs, fmt.Sprintf("delivery: rekey of cost %d installed no keys across %d survivors", t.lastCost, t.lastSurvivors))
	}

	// coverage: sampled keyrings must match the server tree key-for-key
	// and agree on the group key.
	sample := t.spec.Verify
	if sample <= 0 {
		sample = 64
	}
	if v := chaos.VerifyKeyrings(t.tree, t.store, members, sample); v != "" {
		vs = append(vs, "coverage: "+v)
	}
	if serverGK, ok := t.tree.GroupKey(); ok {
		stride := len(members) / sample
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(members); i += stride {
			kr := t.store.Keyring(members[i])
			if kr == nil {
				continue // reported by the ladder check
			}
			gk, ok := kr.GroupKey()
			if !ok || !gk.Equal(serverGK) {
				vs = append(vs, fmt.Sprintf("coverage: member %v does not hold the group key", members[i]))
			}
		}
	} else if len(members) > 0 {
		vs = append(vs, "coverage: non-empty group has no server group key")
	}

	// ladder: every member's join-time unicast chain completed — a
	// missing keyring is a dangling chain. (k-consistency and cluster
	// have no state on this plane and pass vacuously.)
	for _, id := range members {
		if t.store.Keyring(id) == nil {
			vs = append(vs, fmt.Sprintf("ladder: member %v has no keyring", id))
		}
	}
	return vs
}

func (t *keyTenant) finish(gr *GroupReport) error {
	gr.Joins, gr.Leaves = t.joins, t.leaves
	members, err := t.members()
	if err != nil {
		return err
	}
	gr.FinalMembers = len(members)
	d := newDigest()
	if gk, ok := t.tree.GroupKey(); ok {
		d.key("server", gk)
	}
	for _, id := range members {
		kr := t.store.Keyring(id)
		if kr == nil {
			d.miss(id.Key())
			continue
		}
		if gk, ok := kr.GroupKey(); ok {
			d.key(id.Key(), gk)
		} else {
			d.miss(id.Key())
		}
	}
	gr.KeyringDigest = d.sum()
	return nil
}
