package chaos

import (
	"fmt"
	"strings"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/split"
	"tmesh/internal/workload"
)

// Evidence is everything one rekey interval leaves behind for the
// auditors. The simulator Engine and every Plane (the key plane, the
// socket soak, the tenancy host's net plane) differ only in how they
// fill it; the five paper invariants below are written once against it.
// A nil field means the plane has no such state (no overlay on the key
// plane, no member keyrings in the simulator, no recovery ladder on a
// reliable transport) and every check that needs it passes vacuously.
type Evidence struct {
	// Dir is the overlay directory: Definition 3 is checked over it, and
	// "still a member" everywhere below means "has a record in it".
	// Without a directory every ID counts as present.
	Dir *overlay.Directory
	// Alive is the plane's liveness oracle; nil means nobody is down.
	Alive func(ident.ID) bool

	// Copies counts, per member that was owed the interval's multicast,
	// the copies it received (Theorem 1). Planes whose counts would
	// include legitimate recovery copies leave it nil in faulty
	// intervals.
	Copies []Copy
	// FaultFree says no fault was injected into that multicast, which
	// turns "at most one copy" into "exactly one" for live members.
	FaultFree bool
	// Hops is the multicast's per-hop log where the plane collects one:
	// every copy must go to a member and carry only encryptions relevant
	// to the subtree its receiver forwards for (Theorem 2).
	Hops []split.Delivery
	// Message is the rekey message where the plane splits per encryption
	// (only its IDs are read). Set, it makes the hop check Theorem 2 both
	// ways: a hop carries exactly the message's encryptions related to
	// its receiver's subtree, and no hop goes to a subtree needing none.
	Message []keycrypt.Encryption

	// Tree is the key server's tree and Keyed the members — all of them,
	// or the key plane's sample — whose keys are compared with it:
	// through Keyring, key for key along the whole path, where the plane
	// holds full keyrings; otherwise through GroupKeyOf, the group key a
	// member believes in.
	Tree       *keytree.Tree
	Keyed      []ident.ID
	Keyring    func(ident.ID) *keytree.Keyring
	GroupKeyOf func(ident.ID) (keycrypt.Key, bool)

	// Clusters is the Appendix B cluster state, LastEpoch the leadership
	// epoch each cluster had at the previous audit (owned by the plane,
	// advanced by the check) and IntervalStart the time of that audit on
	// the clock the records' JoinTime uses: an epoch may restart at 0
	// only under a leader that joined since.
	Clusters      Clusters
	LastEpoch     map[ident.Prefix]uint64
	IntervalStart time.Duration

	// Ladder is the outcome of the interval's key distribution, as the
	// plane's ladder driver booked it, and Owed the members the server
	// owed the interval's keys when it sent them, in ID order, as the
	// plane's own membership has them — not as the ladder booked them.
	// A cost > 0 message re-keys the root under every level-1 child, so
	// it owes every member in the tree.
	Ladder *recovery.Outcome
	Owed   []ident.ID
	// MustIdle marks an interval the multicast alone had to cover: no
	// fault was injected and the ack timeout is generous. The socket
	// plane needs it because its copy counts are of the rekey message
	// itself, so a member the multicast starved shows one copy like
	// everybody else — the unicast that rescued it. The simulator never
	// sets it: crashes and delay spikes push members onto the ladder in
	// intervals it still counts as fault-free.
	MustIdle bool
}

// Copy is one member's copy count of an interval's multicast.
type Copy struct {
	ID ident.ID
	N  int
}

// Clusters is the read side of *cluster.Manager the Appendix B check
// walks (an interface only so a test can hand it a broken one).
type Clusters interface {
	Prefixes() []ident.Prefix
	Leader(ident.Prefix) (overlay.Record, bool)
	Members(ident.Prefix) []overlay.Record
	Epoch(ident.Prefix) (uint64, bool)
	Has(ident.ID) bool
}

// Counts is what the checks tally while they sweep the evidence.
type Counts struct {
	// CopiesDelivered and CopiesLost split Evidence.Copies by whether
	// the member received the multicast at all.
	CopiesDelivered, CopiesLost int
	// ByRung counts the surviving expected members each ladder rung
	// keyed, indexed by recovery.Rung.
	ByRung [3]int
}

// Verdict is one auditor's outcome; no violations means the invariant
// held. NA marks an auditor the evidence gave nothing to read, whose
// pass is therefore vacuous.
type Verdict struct {
	Name       string
	Violations []string
	NA         bool
}

// Line renders a failed verdict as "name: violation; violation" and a
// passed one as "".
func (v Verdict) Line() string {
	if len(v.Violations) == 0 {
		return ""
	}
	return v.Name + ": " + strings.Join(v.Violations, "; ")
}

// auditors is the registry in canonical order; names and order are part
// of every soak's report format. Checks share one Counts: the ladder
// check reads the rung tallies coverage made before it.
var auditors = []struct {
	name  string
	check func(*Evidence, *Counts) []string
	reads func(*Evidence) bool // the evidence holds something check reads
}{
	{"k-consistency", checkKConsistency, func(ev *Evidence) bool { return ev.Dir != nil }},
	{"delivery", checkDelivery, func(ev *Evidence) bool { return ev.Copies != nil || ev.Hops != nil }},
	{"coverage", checkCoverage, func(ev *Evidence) bool { return ev.Ladder != nil || ev.Tree != nil }},
	{"cluster", checkCluster, func(ev *Evidence) bool { return ev.Clusters != nil }},
	{"ladder", checkLadder, func(ev *Evidence) bool { return ev.Ladder != nil }},
}

// AuditorNames returns the registry's names in order.
func AuditorNames() []string {
	names := make([]string, len(auditors))
	for i, a := range auditors {
		names[i] = a.name
	}
	return names
}

// Audit runs every auditor over the evidence, in registry order. A
// violation never aborts the sweep, so one bad invariant cannot hide
// another. reg (nil-safe) times each check and counts passes and fails.
func Audit(ev *Evidence, reg *obs.Registry) ([]Verdict, Counts) {
	var c Counts
	out := make([]Verdict, len(auditors))
	for i, a := range auditors {
		sp := reg.StartSpan("chaos_audit_" + a.name)
		vs := a.check(ev, &c)
		sp.End()
		if len(vs) > 0 {
			reg.Counter("chaos_audit_fail_" + a.name).Inc()
		} else {
			reg.Counter("chaos_audit_pass_" + a.name).Inc()
		}
		out[i] = Verdict{Name: a.name, Violations: vs, NA: !a.reads(ev)}
	}
	return out, c
}

// Plane is one group's membership and keys as a soak steps them through
// the paper's Section 2.4 batch: an interval's joins and leaves arrive
// one event at a time, the boundary rekeys over the whole batch, and
// what the boundary left behind goes to the auditors. The scale soak's
// KeyTenant, the socket soak's daemon world and the tenancy host's
// groups are Planes, and Step is the one loop that plays an interval on
// any of them.
type Plane interface {
	// Apply queues one schedule event into the interval's batch.
	Apply(ev workload.Event) error
	// Flush closes the interval at the plane-local boundary and returns
	// the cost of its rekey message.
	Flush(boundary time.Duration) (cost int, err error)
	// Evidence gathers what the flush left behind for the auditors; a
	// nil field is a check whose precondition the plane lacks, which
	// passes vacuously.
	Evidence() *Evidence
	// Size returns the current membership count.
	Size() int
}

// Stepped is one interval as Step closed it: the rekey cost, the
// evidence the plane left, and the auditors' verdicts and tallies.
type Stepped struct {
	Cost     int
	Evidence *Evidence
	Verdicts []Verdict
	Counts   Counts
}

// Step plays one interval on p: it applies events in order, flushes at
// boundary, and audits the evidence the flush left. A plane error stops
// the interval; a violation does not, it is in the verdicts.
func Step(p Plane, events []workload.Event, boundary time.Duration) (Stepped, error) {
	for _, ev := range events {
		if err := p.Apply(ev); err != nil {
			return Stepped{}, err
		}
	}
	cost, err := p.Flush(boundary)
	if err != nil {
		return Stepped{}, err
	}
	st := Stepped{Cost: cost, Evidence: p.Evidence()}
	st.Verdicts, st.Counts = Audit(st.Evidence, nil)
	return st, nil
}

func (ev *Evidence) alive(id ident.ID) bool { return ev.Alive == nil || ev.Alive(id) }

func (ev *Evidence) present(id ident.ID) bool {
	if ev.Dir == nil {
		return true
	}
	_, ok := ev.Dir.Record(id)
	return ok
}

// survivor reports whether id is still a live member at the audit.
func (ev *Evidence) survivor(id ident.ID) bool { return ev.alive(id) && ev.present(id) }

// checkKConsistency is Definition 3, swept over the whole directory.
func checkKConsistency(ev *Evidence, _ *Counts) []string {
	if ev.Dir == nil {
		return nil
	}
	if err := ev.Dir.CheckConsistency(); err != nil {
		return []string{fmt.Sprintf("full sweep: %v", err)}
	}
	return nil
}

// checkDelivery is Theorem 1 — no member ever receives a second copy of
// the multicast, and in a fault-free interval every live member receives
// one — plus, over a hop log, Theorem 2's forwarding rule, decided by the
// ID-prefix test alone (never by the split code under audit).
func checkDelivery(ev *Evidence, c *Counts) []string {
	var vs []string
	for _, cp := range ev.Copies {
		if cp.N > 1 {
			vs = append(vs, fmt.Sprintf("member %v received %d copies (Theorem 1: at most one)", cp.ID, cp.N))
		}
		if cp.N >= 1 {
			c.CopiesDelivered++
			continue
		}
		c.CopiesLost++
		if ev.FaultFree && ev.alive(cp.ID) {
			vs = append(vs, fmt.Sprintf("member %v missed the multicast in a fault-free interval", cp.ID))
		}
	}
	carried := make(map[ident.Prefix]int)
	for _, h := range ev.Hops {
		if !ev.present(h.To) {
			vs = append(vs, fmt.Sprintf("copy to non-member %v", h.To))
			continue
		}
		// A member forwarding at level l legitimately holds more than
		// its own path; encryptions for another level-l subtree are the
		// violation.
		w := h.To.Prefix(min(max(h.Level, 0), h.To.Len()))
		clear(carried)
		for _, enc := range h.Encryptions {
			carried[enc.ID]++
			if !enc.RelevantTo(w) {
				vs = append(vs, fmt.Sprintf("%v forwarding at level %d received encryption for unrelated subtree %v", h.To, h.Level, enc.ID))
			}
		}
		want := 0
		for _, enc := range ev.Message {
			if enc.RelevantTo(w) {
				want++
				if carried[enc.ID] == 0 {
					vs = append(vs, fmt.Sprintf("%v forwarding at level %d lacks encryption %v that subtree %v needs", h.To, h.Level, enc.ID, w))
				}
			}
		}
		switch {
		case ev.Message == nil: // no message to hold the hop to
		case want == 0:
			vs = append(vs, fmt.Sprintf("copy to %v at level %d, but no encryption of the message is for subtree %v (Theorem 2)", h.To, h.Level, w))
		case len(h.Encryptions) != want:
			vs = append(vs, fmt.Sprintf("%v forwarding at level %d received %d encryptions, the message has %d for subtree %v", h.To, h.Level, len(h.Encryptions), want, w))
		}
	}
	return vs
}

// checkCoverage is Lemma 3 / Theorem 2 end to end: every surviving
// member the server owed keys was reached by some rung of the ladder,
// and every compared member's keys agree with the server's tree.
func checkCoverage(ev *Evidence, c *Counts) []string {
	var vs []string
	if l := ev.Ladder; l != nil {
		for _, id := range ev.Owed {
			if !ev.survivor(id) {
				continue // crashed or left after the send
			}
			rung, ok := l.RungOf[id]
			if !ok {
				vs = append(vs, fmt.Sprintf("surviving member %v never got its key slice", id))
				continue
			}
			if rung >= 0 && int(rung) < len(c.ByRung) {
				c.ByRung[rung]++
			}
		}
	}
	if ev.Tree == nil {
		return vs
	}
	want, ok := ev.Tree.GroupKey()
	if !ok {
		if len(ev.Keyed) > 0 {
			vs = append(vs, "non-empty group has no server group key")
		}
		return vs
	}
	for _, id := range ev.Keyed {
		if ev.Keyring != nil {
			if v := verifyKeyring(ev.Tree, id, ev.Keyring(id)); v != "" {
				vs = append(vs, v)
			}
		} else if got, has := ev.GroupKeyOf(id); !has || !got.Equal(want) {
			vs = append(vs, fmt.Sprintf("member %v does not hold the interval's group key", id))
		}
	}
	return vs
}

// verifyKeyring compares a member's keyring with the server tree, key
// for key from the group key down to the individual key; "" means they
// agree.
func verifyKeyring(tree *keytree.Tree, id ident.ID, kr *keytree.Keyring) string {
	if kr == nil {
		return fmt.Sprintf("member %v has no keyring", id)
	}
	digits := tree.Params().Digits
	for l := 0; l <= digits; l++ {
		p := id.Prefix(l)
		var want keycrypt.Key
		var found bool
		if l == digits {
			want, found = tree.IndividualKey(id)
		} else {
			want, _, found = tree.KeyOf(p)
		}
		if !found {
			return fmt.Sprintf("tree has no key at %v on %v's path", p, id)
		}
		if got, ok := kr.Key(p); !ok || got != want {
			return fmt.Sprintf("member %v disagrees with the tree at level %d", id, l)
		}
	}
	return ""
}

// checkCluster is Appendix B: every bottom cluster has exactly one
// leader, inside its own cluster and still a live member; no member
// joined strictly before it (equal join times keep the incumbent — the
// ID tie-break applies only at transfer); leadership epochs never go
// backwards; and the cluster membership agrees with the directory in
// both directions.
func checkCluster(ev *Evidence, _ *Counts) []string {
	m := ev.Clusters
	if m == nil {
		return nil
	}
	var vs []string
	seen := make(map[ident.Prefix]bool)
	for _, p := range m.Prefixes() {
		seen[p] = true
		leader, ok := m.Leader(p)
		if !ok {
			vs = append(vs, fmt.Sprintf("cluster %v has no leader", p))
			continue
		}
		if !leader.ID.HasPrefix(p) {
			vs = append(vs, fmt.Sprintf("cluster %v led by outsider %v", p, leader.ID))
		}
		if !ev.survivor(leader.ID) {
			vs = append(vs, fmt.Sprintf("cluster %v leader %v is dead or departed", p, leader.ID))
		}
		for _, mem := range m.Members(p) {
			if mem.JoinTime < leader.JoinTime {
				vs = append(vs, fmt.Sprintf("cluster %v: member %v joined before leader %v", p, mem.ID, leader.ID))
			}
			if !ev.present(mem.ID) {
				vs = append(vs, fmt.Sprintf("cluster %v member %v is not in the directory", p, mem.ID))
			}
		}
		if ep, ok := m.Epoch(p); ok && ev.LastEpoch != nil {
			// A cluster that emptied and re-formed since the last audit
			// legitimately restarts at epoch 0 under a brand-new leader.
			if last, prev := ev.LastEpoch[p]; prev && ep < last && !(ep == 0 && leader.JoinTime >= ev.IntervalStart) {
				vs = append(vs, fmt.Sprintf("cluster %v epoch went backwards: %d -> %d", p, last, ep))
			}
			ev.LastEpoch[p] = ep
		}
	}
	for k := range ev.LastEpoch {
		if !seen[k] {
			delete(ev.LastEpoch, k)
		}
	}
	if ev.Dir != nil {
		for _, id := range ev.Dir.IDs() {
			if ev.alive(id) && !m.Has(id) {
				vs = append(vs, fmt.Sprintf("live member %v belongs to no cluster", id))
			}
		}
	}
	return vs
}

// checkLadder is the recovery ladder's own bookkeeping: no delivery
// chain is left dangling (a surviving member the server owed keys has a
// rung or is booked dead in flight), nobody is booked onto a rung it did
// not take or given up on while reachable, and the backoff stays under
// its cap.
func checkLadder(ev *Evidence, c *Counts) []string {
	l := ev.Ladder
	if l == nil {
		return nil
	}
	var vs []string
	dead := make(map[ident.ID]bool, len(l.DeadInFlight))
	for _, id := range l.DeadInFlight {
		dead[id] = true
		if ev.survivor(id) {
			vs = append(vs, fmt.Sprintf("reachable member %v declared dead in flight", id))
		}
	}
	for _, id := range ev.Owed {
		if !ev.survivor(id) || dead[id] {
			continue
		}
		if _, ok := l.RungOf[id]; !ok {
			vs = append(vs, fmt.Sprintf("member %v was owed keys but no rung delivered them", id))
		}
	}
	for _, id := range l.Resynced {
		if rung, ok := l.RungOf[id]; !ok || rung != recovery.ByResync {
			vs = append(vs, fmt.Sprintf("member %v booked as resynced without the resync rung", id))
		}
	}
	if l.BackoffCap > 0 && l.MaxBackoff > l.BackoffCap {
		vs = append(vs, fmt.Sprintf("reported backoff %v exceeds the cap %v", l.MaxBackoff, l.BackoffCap))
	}
	if u, r := c.ByRung[recovery.ByUnicast], c.ByRung[recovery.ByResync]; ev.MustIdle && u+r > 0 {
		vs = append(vs, fmt.Sprintf("fault-free interval needed the ladder: %d unicast, %d resync", u, r))
	}
	return vs
}
