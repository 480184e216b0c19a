// Package overlay implements the neighbor tables that support hypercube
// routing in T-mesh (Section 2.2 of the paper) and their maintenance
// across user joins, leaves, and failures.
//
// Every user keeps a table of D rows and B entries per row. The (i,j)-
// entry holds up to K neighbors, each a user from the owner's (i,j)-ID
// subtree, ordered by increasing RTT to the owner; the first is the
// primary neighbor. Definition 3 (K-consistency) requires each non-
// diagonal entry to hold min{K, m} neighbors, where m is the population of
// the corresponding ID subtree. With 1-consistent tables, the multicast
// scheme of Section 2.3 delivers exactly one copy of every message to
// every member (Theorem 1).
//
// The key server keeps a single-row table whose (0,j)-entries hold the K
// users with smallest RTT to the server among those whose 0th digit is j.
//
// Join and leave maintenance follows the paper's own simulation strategy:
// "The join and leave protocols of T-mesh are based on the Silk protocols,
// but simplified to improve simulation efficiency." The Directory applies
// the state changes a correct Silk run would produce, while counting the
// protocol messages it would cost.
package overlay

import (
	"fmt"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

// Record is the information about a user that neighbor tables store: "the
// IP address, ID, and some other information of a particular neighbor".
// The join time supports the cluster rekeying heuristic's leader election;
// it is stamped by the key server's clock at ID assignment.
type Record struct {
	Host     vnet.HostID
	ID       ident.ID
	JoinTime time.Duration
}

// Neighbor is a Record plus the owner-measured performance metric: "for
// rekey transport, the performance measure of a neighbor is the RTT
// between the neighbor and the owner of the table".
type Neighbor struct {
	Record
	RTT time.Duration
}

// slot is a neighbor as an entry stores it: the owner-measured RTT and
// the neighbor's rank, 16 bytes, so an entry of the paper's K = 4 is one
// cache line and finding, placing or dropping a neighbor compares
// integers. Host, ID and join time are the roster's, by rank.
type slot struct {
	rtt  time.Duration
	rank ident.Rank
}

var emptySlot = slot{rank: ident.NoRank}

// roster is the rank-indexed record store every slot resolves through:
// one per Directory, shared by its tables, or private to a stand-alone
// table, which makes one on its first insert.
//
// A rank is released only when its user is neither a member nor named
// by any slot. refs counts exactly that: one per slot naming the rank
// (kept by grid.insert, remove and release) plus one while the user is
// a member. Evict leaves stale slots behind on purpose, so the evicted
// user's rank outlives its membership; an ID re-admitted before its
// holders repair gets the same rank back (the RankTable still maps it)
// and assign files the new Record under it, so the stale slots resolve
// to the new record and the join's announce pass refreshes their RTT.
type roster struct {
	ranks *ident.RankTable
	recs  []Record
	refs  []int32
}

func newRoster() *roster { return &roster{ranks: ident.NewRankTable(0)} }

// assign files rec under its ID's rank, allotting one if the ID holds
// none, and takes one reference the caller owes an unref.
func (ro *roster) assign(rec Record) ident.Rank {
	r := ro.ranks.Assign(rec.ID)
	if int(r) == len(ro.recs) {
		ro.recs = append(ro.recs, Record{})
		ro.refs = append(ro.refs, 0)
	}
	ro.recs[r] = rec
	ro.refs[r]++
	return r
}

// rankOf resolves an ID; nobody holds a rank in a roster not made yet.
func (ro *roster) rankOf(id ident.ID) (ident.Rank, bool) {
	if ro == nil {
		return ident.NoRank, false
	}
	return ro.ranks.RankOf(id)
}

func (ro *roster) unref(r ident.Rank) {
	if ro.refs[r]--; ro.refs[r] == 0 {
		ro.ranks.Release(ro.recs[r].ID)
		ro.recs[r] = Record{}
	}
}

// Entry is a read view of one (i,j) cell of a neighbor table: at most K
// neighbors in increasing RTT order. It is a small value (the roster
// plus the entry's K-slot window, unused slots NoRank at the tail; an
// entry of a row nobody was ever inserted into has no window) and
// follows the table's later changes.
type Entry struct {
	ros   *roster
	slots []slot
}

// Len returns the number of neighbors currently in the entry.
func (e Entry) Len() int {
	n := 0
	for n < len(e.slots) && e.slots[n].rank != ident.NoRank {
		n++
	}
	return n
}

func (e Entry) at(i int) Neighbor {
	return Neighbor{Record: e.ros.recs[e.slots[i].rank], RTT: e.slots[i].rtt}
}

// Neighbors returns a copy of the neighbors in increasing RTT order.
func (e Entry) Neighbors() []Neighbor {
	out := make([]Neighbor, e.Len())
	for i := range out {
		out[i] = e.at(i)
	}
	return out
}

// Primary returns the first neighbor for which alive reports true. A nil
// alive accepts every neighbor. The boolean is false when no live
// neighbor exists.
func (e Entry) Primary(alive func(ident.ID) bool) (Neighbor, bool) {
	for i, n := 0, e.Len(); i < n; i++ {
		if nb := e.at(i); alive == nil || alive(nb.ID) {
			return nb, true
		}
	}
	return Neighbor{}, false
}

// PrimaryEarliest returns the live neighbor with the earliest join time
// (ties by ID). The cluster rekeying heuristic uses it at row D-2 so
// that rekey messages reach cluster leaders rather than arbitrary
// members at forwarding level D-1 (the paper's footnote 8: "the
// neighbor with the earliest joining time should be chosen as the
// primary neighbor").
func (e Entry) PrimaryEarliest(alive func(ident.ID) bool) (Neighbor, bool) {
	var best Neighbor
	found := false
	for i, n := 0, e.Len(); i < n; i++ {
		nb := e.at(i)
		if alive != nil && !alive(nb.ID) {
			continue
		}
		if !found || nb.JoinTime < best.JoinTime ||
			(nb.JoinTime == best.JoinTime && nb.ID.Compare(best.ID) < 0) {
			best = nb
			found = true
		}
	}
	return best, found
}

// index returns the position of the slot naming rank r, or -1.
func (e Entry) index(r ident.Rank) int {
	for i := range e.slots {
		if e.slots[i].rank == r {
			return i
		}
	}
	return -1
}

// settle restores RTT order after slot i changed, the one entry-ordering
// routine: the slot is shifted past strictly nearer or strictly farther
// ones only, so equal RTTs keep arrival order (what a stable sort of
// the whole entry would yield) with no allocation.
func settle(ns []slot, i int) {
	for ; i > 0 && ns[i].rtt < ns[i-1].rtt; i-- {
		ns[i], ns[i-1] = ns[i-1], ns[i]
	}
	for ; i+1 < len(ns) && ns[i+1].rtt < ns[i].rtt; i++ {
		ns[i], ns[i+1] = ns[i+1], ns[i]
	}
}

// grid is the slot storage of a table: rows of B entries of K
// contiguous slots. A row is one B×K block allocated on its first
// insert: few rows of a table are ever populated (about two of D at the
// group sizes the paper simulates), and a dense D×B×K block would be
// 80 KB per member at DefaultParams.
type grid struct {
	ros  *roster
	k    int
	base int
	rows [][]slot
}

func (g *grid) entry(row int, col ident.Digit) Entry {
	e := Entry{ros: g.ros}
	if blk := g.rows[row]; blk != nil {
		e.slots = blk[col*g.k : (col+1)*g.k]
	}
	return e
}

// insert places rank r, rtt away, into the (row,col)-entry keeping RTT
// order and the K cap: a rank already held has its RTT refreshed, a
// full entry yields its farthest slot to a strictly nearer rank only.
// It reports whether the entry changed.
func (g *grid) insert(row int, col ident.Digit, r ident.Rank, rtt time.Duration) bool {
	if g.rows[row] == nil {
		blk := make([]slot, g.base*g.k)
		for i := range blk {
			blk[i] = emptySlot
		}
		g.rows[row] = blk
	}
	e := g.entry(row, col)
	at, n := e.index(r), e.Len()
	switch {
	case at >= 0: // refresh in place
		if e.slots[at].rtt == rtt {
			return false
		}
	case n < g.k:
		at, n = n, n+1
		g.ros.refs[r]++
	case rtt < e.slots[n-1].rtt:
		at = n - 1 // displace the worst
		g.ros.refs[r]++
		g.ros.unref(e.slots[at].rank)
	default:
		return false
	}
	e.slots[at] = slot{rtt: rtt, rank: r}
	settle(e.slots[:n], at)
	return true
}

// remove drops rank r from the (row,col)-entry, reporting whether it was
// present.
func (g *grid) remove(row int, col ident.Digit, r ident.Rank) bool {
	e := g.entry(row, col)
	i := e.index(r)
	if i < 0 {
		return false
	}
	copy(e.slots[i:], e.slots[i+1:])
	e.slots[len(e.slots)-1] = emptySlot
	g.ros.unref(r)
	return true
}

// insertNeighbor and removeID are the ID-keyed forms: they resolve the
// rank once and delegate.
func (g *grid) insertNeighbor(row int, col ident.Digit, n Neighbor) bool {
	if g.ros == nil {
		g.ros = newRoster()
	}
	r := g.ros.assign(n.Record)
	changed := g.insert(row, col, r, n.RTT)
	g.ros.unref(r) // the slot, if the entry took the rank, holds its own
	return changed
}

func (g *grid) removeID(row int, col ident.Digit, id ident.ID) bool {
	r, ok := g.ros.rankOf(id)
	return ok && g.remove(row, col, r)
}

// release empties the grid, giving up every slot's hold on its rank.
func (g *grid) release() {
	g.forEach(func(_ int, _ ident.Digit, s slot) { g.ros.unref(s.rank) })
	clear(g.rows)
}

func (g *grid) forEach(fn func(row int, col ident.Digit, s slot)) {
	for i, blk := range g.rows {
		for at, s := range blk {
			if s.rank != ident.NoRank {
				fn(i, at/g.k, s)
			}
		}
	}
}

// forward visits the populated entries of one row in column order.
func (g *grid) forward(row int, visit func(row int, e Entry)) {
	for blk := g.rows[row]; len(blk) > 0; blk = blk[g.k:] {
		if blk[0].rank != ident.NoRank {
			visit(row, Entry{ros: g.ros, slots: blk[:g.k]})
		}
	}
}

// Table is a user's neighbor table: D rows of B entries.
type Table struct {
	params ident.Params
	owner  Record
	grid
}

// NewTable creates an empty stand-alone table for the owner. K must be
// >= 1; the paper recommends K > 1 for resilience and uses K = 4.
func NewTable(params ident.Params, k int, owner Record) (*Table, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("overlay: K must be >= 1, got %d", k)
	}
	if owner.ID.Len() != params.Digits {
		return nil, fmt.Errorf("overlay: owner ID %v has %d digits, want %d", owner.ID, owner.ID.Len(), params.Digits)
	}
	return &Table{params: params, owner: owner,
		grid: grid{k: k, base: params.Base, rows: make([][]slot, params.Digits)}}, nil
}

// Owner returns the table owner's record.
func (t *Table) Owner() Record { return t.owner }

// K returns the table's neighbor cap per entry.
func (t *Table) K() int { return t.k }

// Params returns the ID-space parameters.
func (t *Table) Params() ident.Params { return t.params }

// Entry returns the (i,j)-entry.
func (t *Table) Entry(i int, j ident.Digit) Entry { return t.entry(i, j) }

// cell returns the entry a user belongs to in this table: row l = common
// prefix length with the owner, column id[l]. ok is false for the owner
// itself, which no entry holds (diagonal entries stay empty per
// Definition 3).
func (t *Table) cell(id ident.ID) (row int, col ident.Digit, ok bool) {
	l := t.owner.ID.CommonPrefixLen(id)
	if l >= t.params.Digits {
		return 0, 0, false
	}
	return l, id.Digit(l), true
}

// Insert places a neighbor into the entry it belongs to. Inserting the
// owner itself is rejected. It reports whether the table changed.
func (t *Table) Insert(n Neighbor) bool {
	row, col, ok := t.cell(n.ID)
	return ok && t.insertNeighbor(row, col, n)
}

// Remove deletes the neighbor with the given ID from the entry that
// holds it, reporting whether it was present and the row/column if so.
func (t *Table) Remove(id ident.ID) (row int, col ident.Digit, ok bool) {
	if row, col, ok = t.cell(id); ok && t.removeID(row, col, id) {
		return row, col, true
	}
	return 0, 0, false
}

// Contains reports whether the neighbor with the given ID is present.
func (t *Table) Contains(id ident.ID) bool {
	r, ok := t.ros.rankOf(id)
	return ok && t.holds(id, r)
}

func (t *Table) holds(id ident.ID, r ident.Rank) bool {
	row, col, ok := t.cell(id)
	return ok && t.entry(row, col).index(r) >= 0
}

// NeighborCount returns the total number of neighbors across all entries.
func (t *Table) NeighborCount() int {
	total := 0
	t.forEach(func(int, ident.Digit, slot) { total++ })
	return total
}

// ForEachNeighbor visits every neighbor in the table.
func (t *Table) ForEachNeighbor(fn func(row int, col ident.Digit, n Neighbor)) {
	t.forEach(func(row int, col ident.Digit, s slot) {
		fn(row, col, Neighbor{Record: t.ros.recs[s.rank], RTT: s.rtt})
	})
}

// Forward is the user half of routine FORWARD (Fig. 2, lines 6-9), the
// only statement of the walk: a user at forwarding level `level` sends
// one copy through every populated (s,j)-entry of rows s in
// [level, D-1], row by row in column order. An empty entry has nobody
// to send to, so it is not visited, and that covers the diagonal:
// Definition 3 keeps it empty and cell never files anyone there. Which
// neighbor of the entry is primary, and what the copy for its
// (s+1)-digit subtree carries at forward_level s+1, are the visitor's.
func (t *Table) Forward(level int, visit func(row int, e Entry)) {
	for s := level; s < t.params.Digits; s++ {
		t.forward(s, visit)
	}
}

// ServerTable is the key server's single-row table: B entries, the (0,j)-
// entry holding the K users with smallest RTT to the server among users
// whose 0th ID digit is j.
type ServerTable struct {
	host vnet.HostID
	grid
}

// NewServerTable creates an empty stand-alone key-server table.
func NewServerTable(params ident.Params, k int, host vnet.HostID) (*ServerTable, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("overlay: K must be >= 1, got %d", k)
	}
	return &ServerTable{host: host,
		grid: grid{k: k, base: params.Base, rows: make([][]slot, 1)}}, nil
}

// Host returns the key server's host.
func (s *ServerTable) Host() vnet.HostID { return s.host }

// Entry returns the (0,j)-entry.
func (s *ServerTable) Entry(j ident.Digit) Entry { return s.entry(0, j) }

// Insert places a user into the (0, ID[0])-entry.
func (s *ServerTable) Insert(n Neighbor) bool { return s.insertNeighbor(0, n.ID.Digit(0), n) }

// Remove deletes the user from its entry.
func (s *ServerTable) Remove(id ident.ID) bool { return s.removeID(0, id.Digit(0), id) }

// Forward is the key server's half of FORWARD (lines 3-5): one
// level-1 copy through each populated (0,j)-entry.
func (s *ServerTable) Forward(visit func(row int, e Entry)) { s.forward(0, visit) }
