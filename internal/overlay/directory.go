package overlay

import (
	"fmt"
	"slices"

	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

// Directory tracks the current group membership and maintains every
// member's neighbor table (plus the key server's table) across joins,
// leaves, and failures.
//
// It plays the role of the Silk join/leave/failure-recovery protocols
// ([12, 13, 15] in the paper) at the state level: after every membership
// event the tables are exactly what a completed protocol run yields, and
// MaintenanceMessages estimates the number of protocol messages that run
// would have cost. The paper's own simulator makes the same
// simplification ("simplified to improve simulation efficiency").
type Directory struct {
	params ident.Params
	k      int
	net    vnet.Network
	server *ServerTable

	tree *ident.Tree
	// ros resolves every slot of every table, the server's included;
	// tables is indexed by the same ranks and is nil at the ranks whose
	// user is not (or no longer) a member.
	ros    *roster
	tables []*Table

	// alive, when set, is consulted wherever an entry is (re)filled from
	// the membership; see SetLivenessOracle.
	alive func(ident.ID) bool

	maintenanceMessages int
}

// NewDirectory creates an empty directory. serverHost is the key server's
// attachment point in the network.
func NewDirectory(params ident.Params, k int, net vnet.Network, serverHost vnet.HostID) (*Directory, error) {
	st, err := NewServerTable(params, k, serverHost)
	if err != nil {
		return nil, err
	}
	st.ros = newRoster()
	return &Directory{
		params: params,
		k:      k,
		net:    net,
		server: st,
		tree:   ident.NewTree(params),
		ros:    st.ros,
	}, nil
}

// Params returns the ID-space parameters.
func (d *Directory) Params() ident.Params { return d.params }

// K returns the per-entry neighbor cap.
func (d *Directory) K() int { return d.k }

// Network returns the underlying delay oracle.
func (d *Directory) Network() vnet.Network { return d.net }

// Server returns the key server's table.
func (d *Directory) Server() *ServerTable { return d.server }

// Tree returns the current ID tree. Callers must treat it as read-only.
func (d *Directory) Tree() *ident.Tree { return d.tree }

// Size returns the number of users currently in the group.
func (d *Directory) Size() int { return d.tree.Size() }

// MaintenanceMessages returns the estimated number of table-maintenance
// protocol messages exchanged so far.
func (d *Directory) MaintenanceMessages() int { return d.maintenanceMessages }

// SetLivenessOracle installs a predicate consulted whenever a table
// entry is built or refilled from the membership: candidates for which
// it returns false are skipped. Between a crash and the corresponding
// eviction the dead user is still in the membership view, so without
// the oracle a concurrent repair, leave-refill, or new joiner's table
// build can adopt the dead user into an entry whose owner will never
// monitor it — the record then survives eviction and breaks
// K-consistency. A nil oracle (the default) treats everyone as alive.
func (d *Directory) SetLivenessOracle(alive func(ident.ID) bool) { d.alive = alive }

func (d *Directory) isAlive(id ident.ID) bool {
	return d.alive == nil || d.alive(id)
}

// rankOf is the ID → rank resolution, made once per event: ok is false
// unless the ID's user is a member (an evicted user may still hold a
// rank, see roster).
func (d *Directory) rankOf(id ident.ID) (ident.Rank, bool) {
	r, ok := d.ros.rankOf(id)
	return r, ok && int(r) < len(d.tables) && d.tables[r] != nil
}

// Record returns the record of the user with the given ID.
func (d *Directory) Record(id ident.ID) (Record, bool) {
	if r, ok := d.rankOf(id); ok {
		return d.ros.recs[r], true
	}
	return Record{}, false
}

// TableOf returns the neighbor table of the user with the given ID.
func (d *Directory) TableOf(id ident.ID) (*Table, bool) {
	if r, ok := d.rankOf(id); ok {
		return d.tables[r], true
	}
	return nil, false
}

// Members returns the records of all users in the subtree rooted at the
// prefix, in ID order.
func (d *Directory) Members(p ident.Prefix) []Record {
	ranks := d.ranksUnder(p)
	out := make([]Record, len(ranks))
	for i, r := range ranks {
		out[i] = d.ros.recs[r]
	}
	return out
}

// ranksUnder returns the ranks of all users in the subtree rooted at the
// prefix, in ID order: the candidates of a refill.
func (d *Directory) ranksUnder(p ident.Prefix) []ident.Rank {
	ids := d.tree.Members(p)
	out := make([]ident.Rank, len(ids))
	for i, id := range ids {
		out[i], _ = d.ros.rankOf(id)
	}
	return out
}

// IDs returns all current user IDs in ID order.
func (d *Directory) IDs() []ident.ID { return d.tree.Members(ident.EmptyPrefix) }

// Join admits a user with an already-assigned unique ID: it constructs
// the user's K-consistent neighbor table from the current membership —
// each (i,j)-entry receives the K nearest members of the owner's
// (i,j)-ID subtree; the proximity-aware collection of Section 3.1
// converges to near-neighbors, we grant it exactly-nearest, which only
// strengthens the latency results' baseline — and inserts the user's
// record into every table where it belongs (including the key server's).
//
// Both happen in one pass over the tables in rank order, one probe per
// existing member: vnet.Network promises symmetric RTTs, so the RTT the
// joiner measures to a member is the one that member files the joiner
// under, and a join reads one shortest-path tree, the joiner's. Rank
// order is a function of the event sequence alone, so which of several
// equally near members an entry keeps is too.
func (d *Directory) Join(rec Record) error {
	if _, ok := d.rankOf(rec.ID); ok {
		return fmt.Errorf("overlay: duplicate join of %v", rec.ID)
	}
	table, err := NewTable(d.params, d.k, rec)
	if err != nil {
		return err
	}
	if err := d.tree.Insert(rec.ID); err != nil {
		return err
	}
	table.ros = d.ros
	r := d.ros.assign(rec) // the membership's reference
	for int(r) >= len(d.tables) {
		d.tables = append(d.tables, nil)
	}
	for m, t := range d.tables {
		if t == nil {
			continue
		}
		row, col, _ := t.cell(rec.ID)
		rtt := d.net.RTT(rec.Host, t.owner.Host)
		if d.isAlive(t.owner.ID) {
			table.insert(row, t.owner.ID.Digit(row), ident.Rank(m), rtt)
		}
		// Announce: one notification message per table actually updated.
		if t.insert(row, col, r, rtt) {
			d.maintenanceMessages++
		}
	}
	d.tables[r] = table
	// One probe/insert round per neighbor kept, not per accepted insert:
	// accept-then-displace pairs are an artefact of the visiting order.
	d.maintenanceMessages += table.NeighborCount()
	if d.server.insert(0, rec.ID.Digit(0), r, d.net.RTT(d.server.Host(), rec.Host)) {
		d.maintenanceMessages++
	}
	return nil
}

// Leave removes a user gracefully: its record is deleted from every table
// that holds it, and each affected entry is refilled from the remaining
// membership (the Silk leave protocol's effect).
func (d *Directory) Leave(id ident.ID) error {
	r, err := d.drop(id)
	if err != nil {
		return err
	}
	cands := d.subtreesOf(id)
	for _, t := range d.tables {
		if t == nil {
			continue
		}
		if row, col, _ := t.cell(id); t.remove(row, col, r) {
			d.maintenanceMessages++
			d.refill(&t.grid, row, col, t.owner.Host, cands(row), nil)
		}
	}
	d.ros.unref(r)
	return nil
}

// subtreesOf hands out the refill candidates of one membership event:
// every owner that shares exactly `row` digits with the departed user
// refills from the same ID subtree, id.Prefix(row+1), so an event
// materialises at most D candidate lists, each on first use.
func (d *Directory) subtreesOf(id ident.ID) func(row int) []ident.Rank {
	rows := make([][]ident.Rank, d.params.Digits)
	return func(row int) []ident.Rank {
		if rows[row] == nil {
			rows[row] = d.ranksUnder(id.Prefix(row + 1))
		}
		return rows[row]
	}
}

// drop deletes a user from the membership view and the server's table,
// and its own table with it. The membership's reference on the rank is
// the caller's to give up once it has visited the other tables.
func (d *Directory) drop(id ident.ID) (ident.Rank, error) {
	r, ok := d.rankOf(id)
	if !ok {
		return r, fmt.Errorf("overlay: removing unknown user %v", id)
	}
	if err := d.tree.Remove(id); err != nil {
		return r, err
	}
	d.tables[r].release()
	d.tables[r] = nil
	if d.server.remove(0, id.Digit(0), r) {
		d.maintenanceMessages++
		d.refillServer(id.Digit(0))
	}
	return r, nil
}

// refill is the one refill routine: it tops an entry up to K with the
// nearest candidates as seen from host `from`. Each pass over cands (the
// entry's ID subtree, in ID order) adopts the candidate with the
// smallest RTT — ties to the smaller ID — that is live and not already
// held, and passes repeat while the entry is below K: normally once,
// one neighbor lost and one adopted, with no sort and no allocation. A
// refill is a probe round, so held neighbors that answer before the
// adopted one have their RTT re-measured; on a network whose delays do
// not change that is a no-op. A non-nil alive predicate excludes, on
// top of the directory's own oracle, candidates that are crashed but not
// yet evicted: repairing an entry with a dead user the owner will never
// ping (its failure detectors were enrolled at crash time) would leave
// the dead record in the table forever.
func (d *Directory) refill(g *grid, row int, col ident.Digit, from vnet.HostID, cands []ident.Rank, alive func(ident.ID) bool) {
	for e := g.entry(row, col); e.Len() < d.k; e = g.entry(row, col) {
		best := emptySlot
		var stale []slot // held, live, nearer than best so far, RTT changed
		for _, c := range cands {
			rec := &d.ros.recs[c]
			rtt := d.net.RTT(from, rec.Host)
			if (best.rank != ident.NoRank && rtt >= best.rtt) || (alive != nil && !alive(rec.ID)) || !d.isAlive(rec.ID) {
				continue
			}
			switch at := e.index(c); {
			case at < 0:
				best = slot{rtt: rtt, rank: c}
			case e.slots[at].rtt != rtt:
				stale = append(stale, slot{rtt: rtt, rank: c})
			}
		}
		for _, s := range stale {
			if best.rank == ident.NoRank || s.rtt < best.rtt ||
				(s.rtt == best.rtt && d.ros.recs[s.rank].ID.Compare(d.ros.recs[best.rank].ID) < 0) {
				g.insert(row, col, s.rank, s.rtt)
				d.maintenanceMessages++
			}
		}
		if best.rank == ident.NoRank {
			return
		}
		g.insert(row, col, best.rank, best.rtt)
		d.maintenanceMessages++
	}
}

// refillServer tops up the key server's (0,j)-entry with the nearest
// users whose 0th digit is j.
func (d *Directory) refillServer(j ident.Digit) {
	if d.server.Entry(j).Len() < d.k {
		d.refill(&d.server.grid, 0, j, d.server.Host(), d.ranksUnder(ident.EmptyPrefix.Child(j)), nil)
	}
}

// Evict removes a user from the membership view (records, ID tree, and
// the key server's table) without removing it from other users' neighbor
// tables. It is the key server's part of failure recovery: individual
// owners repair their own tables as they detect the failure (see
// Repair), while the eviction guarantees repairs never re-learn
// the dead user.
//
// It also tops up, for every owner, the single entry whose ID subtree
// contained the evicted user. While the user was crashed but not yet
// evicted, the liveness oracle made refills skip it, which can leave
// such entries below min{K, m}; once the eviction shrinks the membership
// (the server's failure notification, Section 3.2) those entries must be
// topped up or no later event ever repairs them. Entries already at K
// are no-ops, so the sweep costs O(N) table lookups.
func (d *Directory) Evict(id ident.ID) error {
	r, err := d.drop(id)
	if err != nil {
		return err
	}
	cands := d.subtreesOf(id)
	for _, t := range d.tables {
		if t == nil {
			continue
		}
		if row, col, _ := t.cell(id); t.entry(row, col).Len() < d.k {
			d.refill(&t.grid, row, col, t.owner.Host, cands(row), nil)
		}
	}
	d.refillServer(id.Digit(0))
	d.ros.unref(r)
	return nil
}

// Holders returns, in ID order, the users whose tables currently hold
// the given user: the one "who holds X" scan failure detection and
// eviction repair share.
func (d *Directory) Holders(id ident.ID) []ident.ID {
	r, ok := d.ros.rankOf(id) // an evicted user keeps its rank while held
	if !ok {
		return nil
	}
	var out []ident.ID
	for _, t := range d.tables {
		if t != nil && t.holds(id, r) {
			out = append(out, t.owner.ID)
		}
	}
	slices.SortFunc(out, ident.ID.Compare)
	return out
}

// Repair is one owner's half of failure recovery (Section 3.2): it drops
// the failed neighbor from the owner's table and refills that entry from
// the current membership ("look for appropriate users to replace the
// failed one"), skipping candidates for which a non-nil alive returns
// false. Failure recovery must pass its liveness view: under overlapping
// failures, a repair running between a second crash and its eviction
// would otherwise re-learn the dead user into an entry whose owner never
// monitors it. An owner that is not a member, or does not hold failed,
// is left alone.
func (d *Directory) Repair(owner, failed ident.ID, alive func(ident.ID) bool) {
	t, ok := d.TableOf(owner)
	if !ok {
		return
	}
	if row, col, held := t.Remove(failed); held && t.entry(row, col).Len() < d.k {
		d.refill(&t.grid, row, col, t.owner.Host, d.ranksUnder(t.owner.ID.Prefix(row).Child(col)), alive)
	}
}
