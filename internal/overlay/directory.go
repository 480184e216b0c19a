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

	tree    *ident.Tree
	records map[string]Record // by ID key
	tables  map[string]*Table // by ID key

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
	return &Directory{
		params:  params,
		k:       k,
		net:     net,
		server:  st,
		tree:    ident.NewTree(params),
		records: make(map[string]Record),
		tables:  make(map[string]*Table),
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
func (d *Directory) Size() int { return len(d.records) }

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

// Record returns the record of the user with the given ID.
func (d *Directory) Record(id ident.ID) (Record, bool) {
	r, ok := d.records[id.Key()]
	return r, ok
}

// TableOf returns the neighbor table of the user with the given ID.
func (d *Directory) TableOf(id ident.ID) (*Table, bool) {
	t, ok := d.tables[id.Key()]
	return t, ok
}

// Members returns the records of all users in the subtree rooted at the
// prefix, in ID order.
func (d *Directory) Members(p ident.Prefix) []Record {
	ids := d.tree.Members(p)
	out := make([]Record, len(ids))
	for i, id := range ids {
		out[i] = d.records[id.Key()]
	}
	return out
}

// IDs returns all current user IDs in ID order.
func (d *Directory) IDs() []ident.ID { return d.tree.Members(ident.EmptyPrefix) }

// Join admits a user with an already-assigned unique ID: it constructs
// the user's neighbor table from the current membership and inserts the
// user's record into every table where it belongs (including the key
// server's).
func (d *Directory) Join(rec Record) error {
	if _, ok := d.records[rec.ID.Key()]; ok {
		return fmt.Errorf("overlay: duplicate join of %v", rec.ID)
	}
	if err := d.tree.Insert(rec.ID); err != nil {
		return err
	}
	d.records[rec.ID.Key()] = rec

	table, err := d.buildTable(rec)
	if err != nil {
		delete(d.records, rec.ID.Key())
		_ = d.tree.Remove(rec.ID)
		return err
	}
	d.tables[rec.ID.Key()] = table

	// Announce the new user to existing members whose tables should hold
	// it. One notification message per table actually updated.
	for key, t := range d.tables {
		if key == rec.ID.Key() {
			continue
		}
		owner := t.Owner()
		if t.Insert(Neighbor{Record: rec, RTT: d.net.RTT(owner.Host, rec.Host)}) {
			d.maintenanceMessages++
		}
	}
	if d.server.Insert(Neighbor{Record: rec, RTT: d.net.RTT(d.server.Host(), rec.Host)}) {
		d.maintenanceMessages++
	}
	return nil
}

// buildTable constructs a K-consistent table for a new user against the
// current membership: each (i,j)-entry receives the K nearest members of
// the owner's (i,j)-ID subtree. The proximity-aware collection of
// Section 3.1 converges to near-neighbors; we grant it exactly-nearest,
// which only strengthens the latency results' baseline.
func (d *Directory) buildTable(rec Record) (*Table, error) {
	table, err := NewTable(d.params, d.k, rec)
	if err != nil {
		return nil, err
	}
	for key, other := range d.records {
		if key == rec.ID.Key() || !d.isAlive(other.ID) {
			continue
		}
		table.Insert(Neighbor{Record: other, RTT: d.net.RTT(rec.Host, other.Host)})
	}
	// One probe/insert round per neighbor kept: counting accepted inserts
	// instead would charge accept-then-evict pairs that depend on the
	// order the records map happens to iterate in.
	d.maintenanceMessages += table.NeighborCount()
	return table, nil
}

// Leave removes a user gracefully: its record is deleted from every table
// that holds it, and each affected entry is refilled from the remaining
// membership (the Silk leave protocol's effect).
func (d *Directory) Leave(id ident.ID) error {
	if err := d.drop(id); err != nil {
		return err
	}
	cands := d.subtreesOf(id)
	for _, t := range d.tables {
		if row, col, ok := t.Remove(id); ok {
			d.maintenanceMessages++
			d.refill(t.Entry(row, col), t.owner.Host, cands(row), nil)
		}
	}
	return nil
}

// subtreesOf hands out the refill candidates of one membership event:
// every owner that shares exactly `row` digits with the departed user
// refills from the same ID subtree, id.Prefix(row+1), so an event
// materialises at most D candidate lists, each on first use.
func (d *Directory) subtreesOf(id ident.ID) func(row int) []Record {
	rows := make([][]Record, d.params.Digits)
	return func(row int) []Record {
		if rows[row] == nil {
			rows[row] = d.Members(id.Prefix(row + 1))
		}
		return rows[row]
	}
}

// Fail removes a crashed user: Leave's table effects, reached via failure
// detection and recovery (the two differ in detection cost only).
func (d *Directory) Fail(id ident.ID) error { return d.Leave(id) }

// drop deletes a user from the membership view and the server's table.
func (d *Directory) drop(id ident.ID) error {
	if _, ok := d.records[id.Key()]; !ok {
		return fmt.Errorf("overlay: removing unknown user %v", id)
	}
	delete(d.records, id.Key())
	delete(d.tables, id.Key())
	if err := d.tree.Remove(id); err != nil {
		return err
	}
	if d.server.Remove(id) {
		d.maintenanceMessages++
		d.refillServer(id.Digit(0))
	}
	return nil
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
func (d *Directory) refill(e *Entry, from vnet.HostID, cands []Record, alive func(ident.ID) bool) {
	for e.Len() < d.k {
		best := Neighbor{RTT: -1}
		var stale []Neighbor // held, live, nearer than best so far, RTT changed
		for i := range cands {
			c := &cands[i]
			rtt := d.net.RTT(from, c.Host)
			if (best.RTT >= 0 && rtt >= best.RTT) || (alive != nil && !alive(c.ID)) || !d.isAlive(c.ID) {
				continue
			}
			switch at := e.index(c.ID); {
			case at < 0:
				best = Neighbor{Record: *c, RTT: rtt}
			case e.neighbors[at].RTT != rtt:
				stale = append(stale, Neighbor{Record: *c, RTT: rtt})
			}
		}
		for _, n := range stale {
			if best.RTT < 0 || n.RTT < best.RTT || (n.RTT == best.RTT && n.ID.Compare(best.ID) < 0) {
				e.insert(n, d.k)
				d.maintenanceMessages++
			}
		}
		if best.RTT < 0 {
			return
		}
		e.insert(best, d.k)
		d.maintenanceMessages++
	}
}

// refillServer tops up the key server's (0,j)-entry with the nearest
// users whose 0th digit is j.
func (d *Directory) refillServer(j ident.Digit) {
	if e := d.server.Entry(j); e.Len() < d.k {
		d.refill(e, d.server.Host(), d.Members(ident.EmptyPrefix.Child(j)), nil)
	}
}

// Evict removes a user from the membership view (records, ID tree, and
// the key server's table) without removing it from other users' neighbor
// tables. It is the key server's part of failure recovery: individual
// owners repair their own tables as they detect the failure (see
// RepairEntryLive), while the eviction guarantees repairs never re-learn
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
	if err := d.drop(id); err != nil {
		return err
	}
	cands := d.subtreesOf(id)
	for _, t := range d.tables {
		if l := t.owner.ID.CommonPrefixLen(id); l < d.params.Digits {
			if e := t.Entry(l, id.Digit(l)); e.Len() < d.k {
				d.refill(e, t.owner.Host, cands(l), nil)
			}
		}
	}
	d.refillServer(id.Digit(0))
	return nil
}

// Holders returns, in ID order, the users whose tables currently hold
// the given user: the one "who holds X" scan failure detection and
// eviction repair share.
func (d *Directory) Holders(id ident.ID) []ident.ID {
	var out []ident.ID
	for _, t := range d.tables {
		if t.Contains(id) {
			out = append(out, t.owner.ID)
		}
	}
	slices.SortFunc(out, ident.ID.Compare)
	return out
}

// RemoveNeighbor deletes a (possibly dead) neighbor from one owner's
// table, returning the affected entry coordinates.
func (d *Directory) RemoveNeighbor(owner, neighbor ident.ID) (row int, col ident.Digit, ok bool) {
	t, exists := d.tables[owner.Key()]
	if !exists {
		return 0, 0, false
	}
	return t.Remove(neighbor)
}

// RepairEntryLive refills one entry of an owner's table from the
// current membership (the "look for appropriate users to replace the
// failed one" step of Section 3.2), skipping candidates for which a
// non-nil alive returns false, and returns the number of protocol
// messages charged. Failure recovery must pass its liveness view: under
// overlapping failures, a repair running between a second crash and its
// eviction would otherwise re-learn the dead user into an entry whose
// owner never monitors it.
func (d *Directory) RepairEntryLive(owner ident.ID, row int, col ident.Digit, alive func(ident.ID) bool) int {
	t, ok := d.tables[owner.Key()]
	if !ok {
		return 0
	}
	before := d.maintenanceMessages
	if e := t.Entry(row, col); e.Len() < d.k {
		d.refill(e, t.owner.Host, d.Members(t.owner.ID.Prefix(row).Child(col)), alive)
	}
	return d.maintenanceMessages - before
}
