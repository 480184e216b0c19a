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
// protocol messages it would cost. Each event passes over the members
// in rank order, skipping the stub domains the topology rules out (see
// stubIndex), so the members' row 0 is stored column by column (see
// columns): the row-0 entries one event touches lie in one column.
package overlay

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// slot is a neighbor as an entry stores it: the owner-measured RTT in
// nanoseconds and the neighbor's rank, 8 bytes, so finding, placing or
// dropping a neighbor compares integers. Host, ID and join time are the
// roster's, by rank.
type slot struct {
	rtt  uint32
	rank ident.Rank
}

// nanos is the one conversion that stores an RTT in a slot. An RTT
// outside [0, 2³² ns), about 4.29 s, is a fault of the network model and
// panics with its value: clamping it would reorder the entry silently.
func nanos(rtt time.Duration) uint32 {
	if rtt < 0 || rtt > math.MaxUint32 {
		panic(fmt.Sprintf("overlay: RTT %v does not fit a slot's uint32 nanoseconds", rtt))
	}
	return uint32(rtt)
}

var emptySlot = slot{rank: ident.NoRank}

// empty marks every slot of s unused and returns s.
func empty(s []slot) []slot {
	for i := range s {
		s[i] = emptySlot
	}
	return s
}

// roster is the rank-indexed record store every slot resolves through:
// one per Directory, shared by its tables, or private to a stand-alone
// table, which makes one on its first insert.
//
// A rank is released only when its user is neither a member nor named
// by any slot. refs counts exactly that: one per slot naming the rank
// (kept by Entry.put, drop and grid.release) plus one while the user is
// a member. Evict leaves stale slots behind on purpose, so the evicted
// user's rank outlives its membership; an ID re-admitted before its
// holders repair gets the same rank back (the RankTable still maps it)
// and assign files the new Record under it, so the stale slots resolve
// to the new record and the join's announce pass refreshes their RTT.
//
// top is each rank's 0th ID digit, fixed while the rank lives, so the
// directory's column scans need not load IDs.
type roster struct {
	ranks *ident.RankTable
	recs  []Record
	refs  []int32
	top   []byte
}

func newRoster() *roster { return &roster{ranks: ident.NewRankTable(0)} }

// assign files rec under its ID's rank, allotting one if the ID holds
// none, and takes one reference the caller owes an unref.
func (ro *roster) assign(rec Record) ident.Rank {
	r := ro.ranks.Assign(rec.ID)
	if int(r) == len(ro.recs) {
		ro.recs = append(ro.recs, Record{})
		ro.refs = append(ro.refs, 0)
		ro.top = append(ro.top, 0)
	}
	ro.recs[r] = rec
	ro.top[r] = byte(rec.ID.Digit(0))
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
// neighbors in increasing RTT order. It is a small value, the roster
// plus the entry's K-slot window (unused slots NoRank at the tail; a
// deeper column nobody was filed in has no window and is empty), valid
// until the next insert into the same table: opening a window in a
// deeper row moves the windows after it (see grid).
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
	return Neighbor{Record: e.ros.recs[e.slots[i].rank], RTT: time.Duration(e.slots[i].rtt)}
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

// put places rank r, rtt away, into the entry keeping RTT order and the
// K cap (the window's length): a rank already held has its RTT
// refreshed, a full entry yields its farthest slot to a strictly nearer
// rank only. It reports whether the entry changed.
func (e Entry) put(r ident.Rank, rtt uint32) bool {
	at, n := -1, 0 // index(r) and Len() in one pass: held slots are a prefix
	for ; n < len(e.slots) && e.slots[n].rank != ident.NoRank; n++ {
		if e.slots[n].rank == r {
			at = n
		}
	}
	switch {
	case at >= 0: // refresh in place
		if e.slots[at].rtt == rtt {
			return false
		}
	case n < len(e.slots):
		at, n = n, n+1
		e.ros.refs[r]++
	case rtt < e.slots[n-1].rtt:
		at = n - 1 // displace the worst
		e.ros.refs[r]++
		e.ros.unref(e.slots[at].rank)
	default:
		return false
	}
	e.slots[at] = slot{rtt: rtt, rank: r}
	settle(e.slots[:n], at)
	return true
}

// drop removes rank r from the entry, reporting whether it was present.
func (e Entry) drop(r ident.Rank) bool {
	i := e.index(r)
	if i < 0 {
		return false
	}
	copy(e.slots[i:], e.slots[i+1:])
	e.slots[len(e.slots)-1] = emptySlot
	e.ros.unref(r)
	return true
}

// columns stores row 0 of a set of tables column by column: for each
// column c, the K slots of every rank's (0,c)-entry sit back to back.
// Every table whose owner differs from a membership event's user in
// the top digit files it in one column, so Join, Leave, Evict and
// Holders read that column as one contiguous run instead of N tables.
// Chunks of 1<<shift ranks are allocated for all B columns at once and
// never moved, so the store grows exactly. A directory's tables share
// one store, indexed by their ranks; the key server's table and a
// stand-alone table own a one-rank store.
type columns struct {
	k, base int
	shift   uint
	chunks  [][]slot
}

// chunkShift sizes a directory's chunks: 64 ranks, so one column of a
// chunk is a 2 KB run at K = 4.
const chunkShift = 6

// grow makes room for ranks [0, n).
func (c *columns) grow(n int) {
	for len(c.chunks)<<c.shift < n {
		c.chunks = append(c.chunks, empty(make([]slot, c.base*c.k<<c.shift)))
	}
}

// entry returns rank r's (0,col)-entry.
func (c *columns) entry(ros *roster, r ident.Rank, col ident.Digit) Entry {
	at := (col<<c.shift + int(r&(1<<c.shift-1))) * c.k
	return Entry{ros: ros, slots: c.chunks[r>>c.shift][at : at+c.k]}
}

// grid is the slot storage of a table: row 0 in a column store at the
// table's rank, and every deeper row one []slot that stores only the
// entries it populates. Its first B/64 slots are a bitmap of the
// populated columns (a slot is one 64-bit word), then come those
// columns' K-slot windows in column order: column c's window is the
// popcount of the bitmap below c. Few deeper entries are ever populated
// (row 1 about N/B² members per subtree, the rows below far fewer), so
// a row costs what it holds, and a full row the dense B×K block plus
// one bitmap.
type grid struct {
	ros  *roster
	cols *columns
	rank ident.Rank
	rows [][]slot // rows[0] stays nil, row 0 is cols'
}

// words is the length of a deeper row's bitmap: B/64 slots, rounded up.
func (g *grid) words() int { return (g.cols.base + 63) >> 6 }

func (s slot) word() uint64      { return uint64(s.rtt)<<32 | uint64(s.rank) }
func wordSlot(w uint64) slot     { return slot{rtt: uint32(w >> 32), rank: ident.Rank(w)} }
func bit(col ident.Digit) uint64 { return 1 << (col & 63) }

// window returns the offset of col's window in a deeper row and
// whether col has one; without one, it is where the window would go.
func (g *grid) window(blk []slot, col ident.Digit) (int, bool) {
	at := 0
	for _, s := range blk[:col>>6] {
		at += bits.OnesCount64(s.word())
	}
	w := blk[col>>6].word()
	return g.words() + (at+bits.OnesCount64(w&(bit(col)-1)))*g.cols.k, w&bit(col) != 0
}

func (g *grid) entry(row int, col ident.Digit) Entry {
	if row == 0 {
		return g.cols.entry(g.ros, g.rank, col)
	}
	e := Entry{ros: g.ros}
	if blk := g.rows[row]; blk != nil {
		if at, ok := g.window(blk, col); ok {
			e.slots = blk[at : at+g.cols.k]
		}
	}
	return e
}

// alloc returns an empty row with room for n slots, in one allocation
// rounded up to the allocator's size class: the spare capacity takes
// later windows without a copy.
func alloc(n int) []slot { return slices.Grow([]slot(nil), n) }

// open returns the (row,col)-entry of a deeper row, giving col a window
// in column order if it has none. The row then grows by one window, in
// place while its capacity lasts (see room).
func (g *grid) open(row int, col ident.Digit) Entry {
	blk, k := g.rows[row], g.cols.k
	if blk == nil {
		blk = alloc(g.words() + k)[:g.words()]
	}
	at, ok := g.window(blk, col)
	if !ok {
		if len(blk)+k > cap(blk) {
			blk = g.room(blk)
			at, _ = g.window(blk, col)
		}
		blk = blk[:len(blk)+k]
		copy(blk[at+k:], blk[at:])
		empty(blk[at : at+k])
		blk[col>>6] = wordSlot(blk[col>>6].word() | bit(col))
		g.rows[row] = blk
	}
	return Entry{ros: g.ros, slots: blk[at : at+k]}
}

// room makes space for one more window in a full deeper row: it gives
// up a window churn emptied, if the row has one, so that the column
// reads as never opened again; else it moves the row into a new array
// with room for an eighth more windows, rounded up to its size class.
func (g *grid) room(blk []slot) []slot {
	k, at := g.cols.k, g.words()
	for w := range g.words() {
		for set := blk[w].word(); set != 0; set &= set - 1 {
			if blk[at].rank == ident.NoRank {
				blk[w] = wordSlot(blk[w].word() &^ (set & -set))
				return append(blk[:at], blk[at+k:]...)
			}
			at += k
		}
	}
	windows := (len(blk) - g.words()) / k
	return append(alloc(len(blk)+k*(1+windows/8)), blk...)
}

// insert places rank r, rtt away, into the (row,col)-entry (see
// Entry.put), opening a deeper row's window first. It reports whether
// the entry changed.
func (g *grid) insert(row int, col ident.Digit, r ident.Rank, rtt uint32) bool {
	if row == 0 {
		return g.entry(0, col).put(r, rtt)
	}
	return g.open(row, col).put(r, rtt)
}

// insertNeighbor and removeID are the ID-keyed forms: they resolve the
// rank once and delegate.
func (g *grid) insertNeighbor(row int, col ident.Digit, n Neighbor) bool {
	if g.ros == nil {
		g.ros = newRoster()
	}
	r := g.ros.assign(n.Record)
	changed := g.insert(row, col, r, nanos(n.RTT))
	g.ros.unref(r) // the slot, if the entry took the rank, holds its own
	return changed
}

func (g *grid) removeID(row int, col ident.Digit, id ident.ID) bool {
	r, ok := g.ros.rankOf(id)
	return ok && g.entry(row, col).drop(r)
}

// release empties the grid, giving up every slot's hold on its rank, so
// that the row-0 windows are empty for the rank's next owner.
func (g *grid) release() {
	g.forEach(func(_ int, _ ident.Digit, s slot) { g.ros.unref(s.rank) })
	for col := range g.cols.base {
		empty(g.entry(0, col).slots)
	}
	clear(g.rows)
}

// forEach visits every neighbor row by row, in column and RTT order.
func (g *grid) forEach(fn func(row int, col ident.Digit, s slot)) {
	for row := range g.rows {
		for col := range g.cols.base {
			for _, s := range g.entry(row, col).slots {
				if s.rank != ident.NoRank {
					fn(row, col, s)
				}
			}
		}
	}
}

// forward visits the populated entries of one row in column order: a
// deeper row's windows in bitmap order, skipping those churn emptied.
func (g *grid) forward(row int, visit func(row int, e Entry)) {
	if row == 0 {
		for col := range g.cols.base {
			if e := g.entry(0, col); e.slots[0].rank != ident.NoRank {
				visit(0, e)
			}
		}
		return
	}
	blk, k := g.rows[row], g.cols.k
	for at := g.words(); at < len(blk); at += k {
		if blk[at].rank != ident.NoRank {
			visit(row, Entry{ros: g.ros, slots: blk[at : at+k]})
		}
	}
}

// Table is a user's neighbor table: D rows of B entries.
type Table struct {
	owner Record
	grid
}

// newTable makes the owner's table with row 0 at rank r of cols.
func newTable(params ident.Params, owner Record, ros *roster, cols *columns, r ident.Rank) *Table {
	return &Table{owner: owner, grid: grid{ros: ros, cols: cols, rank: r, rows: make([][]slot, params.Digits)}}
}

// fill files a joiner's deeper-row neighbours, ns in arrival order,
// into rows allocated once at their final size: one window per column
// ns populate in the row, so no open has to grow one.
func (t *Table) fill(ns []slot) {
	for row := 1; row < len(t.rows); row++ {
		var bm [256 / 64]uint64 // Params.Validate caps B at 256
		n := 0
		for _, s := range ns {
			if l, col, _ := t.cell(t.ros.recs[s.rank].ID); l == row && bm[col>>6]&bit(col) == 0 {
				bm[col>>6] |= bit(col)
				n++
			}
		}
		if n > 0 {
			t.rows[row] = alloc(t.words() + n*t.cols.k)[:t.words()]
		}
	}
	for _, s := range ns {
		row, col, _ := t.cell(t.ros.recs[s.rank].ID)
		t.insert(row, col, s.rank, s.rtt)
	}
}

// Owner returns the table owner's record.
func (t *Table) Owner() Record { return t.owner }

// K returns the table's neighbor cap per entry.
func (t *Table) K() int { return t.cols.k }

// Params returns the ID-space parameters.
func (t *Table) Params() ident.Params { return ident.Params{Digits: len(t.rows), Base: t.cols.base} }

// Entry returns the (i,j)-entry.
func (t *Table) Entry(i int, j ident.Digit) Entry { return t.entry(i, j) }

// cell returns the entry a user belongs to in this table: row l = common
// prefix length with the owner, column id[l]. ok is false for the owner
// itself, which no entry holds (diagonal entries stay empty per
// Definition 3).
func (t *Table) cell(id ident.ID) (row int, col ident.Digit, ok bool) {
	l := t.owner.ID.CommonPrefixLen(id)
	if l >= len(t.rows) {
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
	r, held := t.ros.rankOf(id)
	row, col, ok := t.cell(id)
	return held && ok && t.entry(row, col).index(r) >= 0
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
		fn(row, col, Neighbor{Record: t.ros.recs[s.rank], RTT: time.Duration(s.rtt)})
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
	for s := level; s < len(t.rows); s++ {
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
	cols := &columns{k: k, base: params.Base} // one rank
	cols.grow(1)
	return &ServerTable{host: host, grid: grid{cols: cols, rows: make([][]slot, 1)}}, nil
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
