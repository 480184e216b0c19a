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
)

// Evidence is everything one rekey interval leaves behind for the
// auditors. The four soak planes — the simulator Engine, the socket
// soak, and the tenancy host's two profiles — differ only in how they
// fill it; the five paper invariants below are written once against it.
// A nil field means the plane has no such state (no overlay on the key
// plane, no member keyrings in the simulator, no recovery ladder on a
// reliable transport) and every check that needs it passes vacuously.
type Evidence struct {
	// Dir is the overlay directory: Definition 3 is checked over it, and
	// "still a member" everywhere below means "has a record in it".
	// Without a directory every ID counts as present.
	Dir *overlay.Directory
	// Churned scopes the Definition 3 sweep to the table entries a
	// membership change at these IDs can affect. Nil — as opposed to
	// empty — asks for the full O(N·D·B) sweep.
	Churned []ident.ID
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
	LastEpoch     map[string]uint64
	IntervalStart time.Duration

	// Ladder is the outcome of the interval's key distribution.
	Ladder *Ladder
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

// Ladder is how one interval's keys reached the members.
type Ladder struct {
	// Expected lists the members the server owed the interval's keys
	// when it sent them, in ID order. A cost > 0 message re-keys the root
	// under every level-1 child, so it carries something for each of them.
	Expected []ident.ID
	// RungOf reports the rung that keyed a member, false if none did.
	RungOf func(ident.ID) (recovery.Rung, bool)
	// Resynced and DeadInFlight are the members the ladder booked as
	// fallen through to the resync rung and as given up on.
	Resynced, DeadInFlight []ident.ID
	// MaxBackoff is the longest retry spacing reported, BackoffCap the
	// configured ceiling (0: unknown).
	MaxBackoff, BackoffCap time.Duration
	// MustIdle marks an interval the multicast alone had to cover: no
	// fault was injected and the ack timeout is generous. The socket
	// plane needs it because its copy counts are of the rekey message
	// itself, so a member the multicast starved shows one copy like
	// everybody else — the unicast that rescued it. The simulator never
	// sets it: crashes and delay spikes push members onto the ladder in
	// intervals it still counts as fault-free.
	MustIdle bool
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
// held.
type Verdict struct {
	Name       string
	Violations []string
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
}{
	{"k-consistency", checkKConsistency},
	{"delivery", checkDelivery},
	{"coverage", checkCoverage},
	{"cluster", checkCluster},
	{"ladder", checkLadder},
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
		out[i] = Verdict{Name: a.name, Violations: vs}
	}
	return out, c
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

// checkKConsistency is Definition 3: around every churned ID, over the
// entries such a change can affect, or over the whole directory.
func checkKConsistency(ev *Evidence, _ *Counts) []string {
	if ev.Dir == nil {
		return nil
	}
	if ev.Churned == nil {
		if err := ev.Dir.CheckConsistency(); err != nil {
			return []string{fmt.Sprintf("full sweep: %v", err)}
		}
		return nil
	}
	var vs []string
	digits := ev.Dir.Params().Digits
	for _, id := range ev.Churned {
		if err := ev.Dir.CheckConsistencyUnder(id.Prefix(digits)); err != nil {
			vs = append(vs, fmt.Sprintf("churn at %v: %v", id, err))
		}
	}
	return vs
}

// checkDelivery is Theorem 1 — no member ever receives a second copy of
// the multicast, and in a fault-free interval every live member receives
// one — plus, over a hop log, Theorem 2's forwarding rule.
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
	for _, h := range ev.Hops {
		if !ev.present(h.To) {
			vs = append(vs, fmt.Sprintf("copy to non-member %v", h.To))
			continue
		}
		// A member forwarding at level l legitimately holds more than
		// its own path; encryptions for another level-l subtree are the
		// violation.
		w := h.To.Prefix(min(max(h.Level, 0), h.To.Len()))
		for _, enc := range h.Encryptions {
			if !enc.RelevantTo(w) {
				vs = append(vs, fmt.Sprintf("%v forwarding at level %d received encryption for unrelated subtree %v", h.To, h.Level, enc.ID))
			}
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
		for _, id := range l.Expected {
			if !ev.survivor(id) {
				continue // crashed or left after the send
			}
			rung, ok := l.RungOf(id)
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
	seen := make(map[string]bool)
	for _, p := range m.Prefixes() {
		pk := p.Key()
		seen[pk] = true
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
			if last, prev := ev.LastEpoch[pk]; prev && ep < last && !(ep == 0 && leader.JoinTime >= ev.IntervalStart) {
				vs = append(vs, fmt.Sprintf("cluster %v epoch went backwards: %d -> %d", p, last, ep))
			}
			ev.LastEpoch[pk] = ep
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
	dead := make(map[string]bool, len(l.DeadInFlight))
	for _, id := range l.DeadInFlight {
		dead[id.Key()] = true
		if ev.survivor(id) {
			vs = append(vs, fmt.Sprintf("reachable member %v declared dead in flight", id))
		}
	}
	for _, id := range l.Expected {
		if !ev.survivor(id) || dead[id.Key()] {
			continue
		}
		if _, ok := l.RungOf(id); !ok {
			vs = append(vs, fmt.Sprintf("member %v was owed keys but no rung delivered them", id))
		}
	}
	for _, id := range l.Resynced {
		if rung, ok := l.RungOf(id); !ok || rung != recovery.ByResync {
			vs = append(vs, fmt.Sprintf("member %v booked as resynced without the resync rung", id))
		}
	}
	if l.BackoffCap > 0 && l.MaxBackoff > l.BackoffCap {
		vs = append(vs, fmt.Sprintf("reported backoff %v exceeds the cap %v", l.MaxBackoff, l.BackoffCap))
	}
	if u, r := c.ByRung[recovery.ByUnicast], c.ByRung[recovery.ByResync]; l.MustIdle && u+r > 0 {
		vs = append(vs, fmt.Sprintf("fault-free interval needed the ladder: %d unicast, %d resync", u, r))
	}
	return vs
}
