package overlay

import (
	"cmp"
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
	// cols holds the members' row 0 and tables the rest, both indexed
	// by the same ranks; tables is nil at the ranks whose user is not
	// (or no longer) a member.
	ros    *roster
	cols   *columns
	tables []*Table
	// joined collects a joiner's deeper-row neighbours while Join scans
	// the members, so that Table.fill allocates each row once, and near
	// its row 0.
	joined []slot
	near   nearest
	stubs  stubIndex
	// ev is the user of the current event and subs its refill
	// candidates by row (see cands); stale is refill's scratch.
	ev    ident.ID
	subs  []candidates
	stale []pick
	// visits counts the member tables events have read, a deterministic
	// measure of the pruning that BenchmarkDirectoryChurn reports.
	visits int

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
		cols:   &columns{k: k, base: params.Base, shift: chunkShift},
		near:   nearest{k: k, words: make([]uint64, params.Base*k)},
		stubs:  newStubIndex(net, params.Base),
		subs:   make([]candidates, params.Digits),
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
	ranks := d.appendRanksUnder(nil, p)
	out := make([]Record, len(ranks))
	for i, r := range ranks {
		out[i] = d.ros.recs[r]
	}
	return out
}

// appendRanksUnder appends the ranks of all users in the subtree rooted
// at the prefix, in ID order: the candidates of a refill, read off the
// ID tree with one rank lookup per member.
func (d *Directory) appendRanksUnder(out []ident.Rank, p ident.Prefix) []ident.Rank {
	out = slices.Grow(out, d.tree.SubtreeSize(p))
	d.tree.EachMember(p, func(id ident.ID) {
		r, _ := d.ros.rankOf(id)
		out = append(out, r)
	})
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
// Both happen in one pass over the members in rank order, one probe
// per member visited: vnet.Network promises symmetric RTTs, so the RTT
// the joiner measures to a member is the one that member files the
// joiner under. Rank order is a function of the event sequence alone,
// so which of several equally near members an entry keeps is too. The
// members sharing the joiner's top digit (about N/B) are all visited:
// they file the joiner in a deeper row, and the joiner files them in
// its deeper rows once the pass is over (Table.fill), in the same
// order. The others file the joiner in row 0, read from the column
// store, and on a vnet.Stubs network only the joiner's own stub and
// the stubs whose bound admits it are visited (see stubIndex). The
// joiner's row 0 keeps, per column, the K least (RTT, rank) among the
// live members visited and those of the other stubs, read nearest
// first until no later stub can come nearer than every column's K-th:
// the entries rank-order puts from every member would leave.
func (d *Directory) Join(rec Record) error {
	if _, ok := d.rankOf(rec.ID); ok {
		return fmt.Errorf("overlay: duplicate join of %v", rec.ID)
	}
	if err := d.tree.Insert(rec.ID); err != nil {
		return err
	}
	r := d.ros.assign(rec) // the membership's reference
	for int(r) >= len(d.tables) {
		d.tables = append(d.tables, nil)
	}
	d.cols.grow(len(d.tables))
	table := newTable(d.params, rec, d.ros, d.cols, r)
	x0, x, near := rec.ID.Digit(0), &d.stubs, d.near
	x.add(r, rec.Host)
	// Slots that still name the rank (an evicted ID re-admitted before
	// its holders repair) may sit anywhere: the announce refreshes them.
	up := x.admitting(r, x0, d.ros.refs[r] > 1)
	near.reset()
	for i, t := range d.tables {
		m, top := ident.Rank(i), ident.Digit(d.ros.top[i])
		if t == nil || top != x0 && !x.visit[x.stub[m]] {
			continue
		}
		d.visits++
		owner := &d.ros.recs[m]
		rtt := nanos(d.net.RTT(rec.Host, owner.Host))
		// Each files the other; the announce costs one notification
		// message per table actually updated. Row 0 (top digits differ)
		// is the column store's, so m's table is not loaded.
		if top != x0 {
			if d.isAlive(owner.ID) {
				near.offer(top, slot{rtt: rtt, rank: m})
			}
			e := d.cols.entry(d.ros, m, x0)
			if e.put(r, rtt) {
				d.maintenanceMessages++
			}
			x.acc[x.stub[m]] = max(x.acc[x.stub[m]], x.over(m, e))
			continue
		}
		if d.isAlive(owner.ID) {
			d.joined = append(d.joined, slot{rtt: rtt, rank: m})
		}
		if row, col, _ := t.cell(rec.ID); t.insert(row, col, r, rtt) {
			d.maintenanceMessages++
		}
	}
	for s, v := range x.visit {
		if v {
			x.bound[s*x.base+x0] = x.acc[s]
		}
	}
	for _, o := range x.unvisited(up) {
		if o.lb > near.farthest(x0) {
			break
		}
		for _, m := range x.members[o.stub] {
			// up + core + up(m) is the RTT: past the column's K-th, m
			// cannot enter it.
			top, owner := ident.Digit(d.ros.top[m]), &d.ros.recs[m]
			if top != x0 && up+x.core[o.stub]+int64(x.up[m]) <= near.kth(top) && d.isAlive(owner.ID) {
				near.offer(top, slot{rtt: nanos(d.net.RTT(rec.Host, owner.Host)), rank: m})
			}
		}
	}
	for col := range d.params.Base {
		if col != x0 {
			e := d.cols.entry(d.ros, r, col)
			near.put(col, e)
			x.raise(r, col, e)
		}
	}
	table.fill(d.joined)
	d.joined = d.joined[:0]
	d.tables[r] = table
	// One probe/insert round per neighbor kept, not per accepted insert:
	// accept-then-displace pairs are an artefact of the visiting order.
	d.maintenanceMessages += table.NeighborCount()
	if d.server.insert(0, rec.ID.Digit(0), r, nanos(d.net.RTT(d.server.Host(), rec.Host))) {
		d.maintenanceMessages++
	}
	return nil
}

// holders calls fn for every member whose table may hold the current
// event's user, at rank r: the members sharing its top digit (cands(0)),
// which file it in a deeper row, then the other members of the stubs
// that may hold it in row 0 (see stubIndex). A holder's refill changes
// only its own entry and raising a bound is a max, so unlike Join's
// pass this one needs no rank order.
func (d *Directory) holders(r ident.Rank, fn func(m ident.Rank)) {
	x0 := d.ev.Digit(0)
	for _, m := range d.cands(0).ranks {
		d.visits++
		fn(m)
	}
	for s, v := range d.stubs.holding(r, x0) {
		if !v {
			continue
		}
		for _, m := range d.stubs.members[s] {
			if ident.Digit(d.ros.top[m]) != x0 {
				d.visits++
				fn(m)
			}
		}
	}
}

// Leave removes a user gracefully: its record is deleted from every table
// that holds it, and each affected entry is refilled from the remaining
// membership (the Silk leave protocol's effect). It reads only the
// tables that may hold the user (see holders), and each refill only the
// candidates that can beat the one it adopts (see refill). A row-0
// refill can raise the entry's K-th RTT, so it raises the bound.
func (d *Directory) Leave(id ident.ID) error {
	r, err := d.drop(id)
	if err != nil {
		return err
	}
	d.holders(r, func(m ident.Rank) {
		if row, col, e := d.filed(m, id); e.drop(r) {
			d.maintenanceMessages++
			t := d.tables[m]
			d.refill(&t.grid, row, col, t.owner.Host, d.cands(row), nil)
			if row == 0 {
				d.stubs.raise(m, col, t.entry(0, col))
			}
		}
	})
	d.ros.unref(r)
	return nil
}

// filed returns the entry of member m's table that id belongs in: its
// (0, id[0])-entry from the column store when their top digits differ,
// else a deeper entry of m's table. m's own ID gets a zero Entry.
func (d *Directory) filed(m ident.Rank, id ident.ID) (row int, col ident.Digit, e Entry) {
	if col = id.Digit(0); ident.Digit(d.ros.top[m]) != col {
		return 0, col, d.cols.entry(d.ros, m, col)
	}
	t := d.tables[m]
	if row, col, ok := t.cell(id); ok {
		return row, col, t.entry(row, col)
	}
	return 0, 0, Entry{}
}

// subtrees starts an event of the user id: cands reads its ID subtrees
// afresh.
func (d *Directory) subtrees(id ident.ID) {
	d.ev = id
	for i := range d.subs {
		d.subs[i].reset()
	}
}

// cands hands out the refill candidates of the current event: every
// owner that shares exactly `row` digits with the event's user refills
// from the same ID subtree, its Prefix(row+1), so an event reads at
// most D lists, each on first use, into storage the directory keeps.
func (d *Directory) cands(row int) *candidates {
	cs := &d.subs[row]
	if !cs.read {
		cs.ranks, cs.read = d.appendRanksUnder(cs.ranks[:0], d.ev.Prefix(row+1)), true
	}
	return cs
}

// drop deletes a user from the membership view and the server's table,
// and its own table with it, and starts the user's event. The
// membership's reference on the rank is the caller's to give up once it
// has visited the other tables.
func (d *Directory) drop(id ident.ID) (ident.Rank, error) {
	r, ok := d.rankOf(id)
	if !ok {
		return r, fmt.Errorf("overlay: removing unknown user %v", id)
	}
	if err := d.tree.Remove(id); err != nil {
		return r, err
	}
	d.subtrees(id)
	d.tables[r].release()
	d.tables[r] = nil
	d.stubs.remove(r)
	if d.server.entry(0, id.Digit(0)).drop(r) {
		d.maintenanceMessages++
		d.refillServer()
	}
	return r, nil
}

// pick is a candidate a refill has read: its slot and its place in the
// ID order of the candidates, which breaks RTT ties. i < 0 is none.
type pick struct {
	slot
	i int32
}

// before reports whether p is some candidate and comes before the one
// at RTT rtt and place i.
func (p pick) before(rtt int64, i int32) bool {
	return p.i >= 0 && (int64(p.rtt) < rtt || int64(p.rtt) == rtt && p.i < i)
}

// refill is the one refill routine: it tops an entry up to K with the
// nearest candidates as seen from host `from`, cs being the entry's ID
// subtree. Each pass adopts the candidate with the smallest RTT — ties
// to the smaller ID — that is live and not already held, and passes
// repeat while the entry is below K: normally once, one neighbor lost
// and one adopted, with no allocation. A pass reads the candidates in
// the order stubIndex.nearestFirst gives the holder's stub: its own
// stub's in full, then the others' nearest first, up to the first it
// can adopt or past the best so far. On a network without stubs that
// is every candidate in ID order. Every candidate nearer than the adopted one is
// read either way, so the choice is the full scan's. A refill is a
// probe round, so held neighbors that answer before the adopted one
// have their RTT re-measured, in ID order; on a network whose delays do
// not change that is a no-op. A non-nil alive predicate excludes, on
// top of the directory's own oracle, candidates that are crashed but
// not yet evicted: repairing an entry with a dead user the owner will
// never ping (its failure detectors were enrolled at crash time) would
// leave the dead record in the table forever. The entry is read again
// after every round of inserts, which may have moved its window.
func (d *Directory) refill(g *grid, row int, col ident.Digit, from vnet.HostID, cs *candidates, alive func(ident.ID) bool) {
	order, up := d.stubs.nearestFirst(cs, from)
	for e := g.entry(row, col); e.Len() < d.k; e = g.entry(row, col) {
		best := pick{slot: emptySlot, i: -1}
		stale := d.stale[:0] // held, live, read before best, RTT changed
		for j := range cs.ranks {
			i, lb := int32(j), int64(-1)
			if order != nil {
				i, lb = order[j].at()
			}
			if lb >= 0 && best.before(up+lb, i) {
				break // up + lb is the RTT: the rest are farther
			}
			c := cs.ranks[i]
			rec := &d.ros.recs[c]
			rtt := nanos(d.net.RTT(from, rec.Host))
			if best.before(int64(rtt), i) || (alive != nil && !alive(rec.ID)) || !d.isAlive(rec.ID) {
				continue
			}
			if at := e.index(c); at < 0 {
				best = pick{slot{rtt: rtt, rank: c}, i}
				if lb >= 0 {
					break
				}
			} else if e.slots[at].rtt != rtt {
				stale = append(stale, pick{slot{rtt: rtt, rank: c}, i})
			}
		}
		slices.SortFunc(stale, func(a, b pick) int { return cmp.Compare(a.i, b.i) })
		for _, s := range stale {
			if !best.before(int64(s.rtt), s.i) {
				g.insert(row, col, s.rank, s.rtt)
				d.maintenanceMessages++
			}
		}
		d.stale = stale
		if best.i < 0 {
			return
		}
		g.insert(row, col, best.rank, best.rtt)
		d.maintenanceMessages++
	}
}

// refillServer tops up the key server's (0,j)-entry, j the current
// event's top digit, with the nearest users whose 0th digit is j.
func (d *Directory) refillServer() {
	if j := d.ev.Digit(0); d.server.Entry(j).Len() < d.k {
		d.refill(&d.server.grid, 0, j, d.server.Host(), d.cands(0), nil)
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
// are no-ops, so the sweep walks Leave's holders (see holders), which
// reach every short entry: the members sharing the user's top digit,
// and of the others every stub with a short (0,c)-entry, c the user's
// top digit, since such an entry weighs +∞ in its stub's bound (see
// stubIndex) and holding marks every stub whose bound is that high.
func (d *Directory) Evict(id ident.ID) error {
	r, err := d.drop(id)
	if err != nil {
		return err
	}
	d.holders(r, func(m ident.Rank) {
		if row, col, e := d.filed(m, id); e.Len() < d.k {
			t := d.tables[m]
			d.refill(&t.grid, row, col, t.owner.Host, d.cands(row), nil)
		}
	})
	d.refillServer()
	d.ros.unref(r)
	return nil
}

// Holders returns, in ID order, the users whose tables currently hold
// the given user: the one "who holds X" pass failure detection and
// eviction repair share. It walks Leave's holders (see holders).
func (d *Directory) Holders(id ident.ID) []ident.ID {
	r, ok := d.ros.rankOf(id) // an evicted user keeps its rank while held
	if !ok {
		return nil
	}
	var out []ident.ID
	d.subtrees(id)
	d.holders(r, func(m ident.Rank) {
		if _, _, e := d.filed(m, id); e.index(r) >= 0 {
			out = append(out, d.ros.recs[m].ID)
		}
	})
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
// is left alone. The entry's ID subtree is failed's at the entry's row,
// so the refill reads it as a one-holder event of failed.
func (d *Directory) Repair(owner, failed ident.ID, alive func(ident.ID) bool) {
	t, ok := d.TableOf(owner)
	if !ok {
		return
	}
	row, col, held := t.Remove(failed)
	if held && t.entry(row, col).Len() < d.k {
		d.subtrees(failed)
		d.refill(&t.grid, row, col, t.owner.Host, d.cands(row), alive)
	}
	if held && row == 0 {
		d.stubs.raise(t.rank, col, t.entry(0, col))
	}
}
