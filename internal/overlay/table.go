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

// Entry is one (i,j) cell of a neighbor table: at most K neighbors in
// increasing RTT order.
type Entry struct {
	neighbors []Neighbor
}

// Len returns the number of neighbors currently in the entry.
func (e *Entry) Len() int { return len(e.neighbors) }

// Neighbors returns the neighbors in increasing RTT order. The caller
// must not mutate the returned slice.
func (e *Entry) Neighbors() []Neighbor { return e.neighbors }

// Primary returns the first neighbor for which alive reports true. A nil
// alive accepts every neighbor. The boolean is false when no live
// neighbor exists.
func (e *Entry) Primary(alive func(ident.ID) bool) (Neighbor, bool) {
	for _, n := range e.neighbors {
		if alive == nil || alive(n.ID) {
			return n, true
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
func (e *Entry) PrimaryEarliest(alive func(ident.ID) bool) (Neighbor, bool) {
	var best Neighbor
	found := false
	for _, n := range e.neighbors {
		if alive != nil && !alive(n.ID) {
			continue
		}
		if !found || n.JoinTime < best.JoinTime ||
			(n.JoinTime == best.JoinTime && n.ID.Compare(best.ID) < 0) {
			best = n
			found = true
		}
	}
	return best, found
}

// insert adds a neighbor keeping RTT order and the K cap. It reports
// whether the entry changed. Duplicate IDs refresh the RTT instead.
func (e *Entry) insert(n Neighbor, k int) bool {
	at := e.index(n.ID)
	switch {
	case at >= 0: // refresh in place
		if e.neighbors[at].RTT == n.RTT {
			return false
		}
	case len(e.neighbors) < k:
		at = len(e.neighbors)
		e.neighbors = append(e.neighbors, n)
	case n.RTT < e.neighbors[k-1].RTT:
		at = k - 1 // displace the worst
	default:
		return false
	}
	e.neighbors[at] = n
	e.settle(at)
	return true
}

// settle restores RTT order after slot i changed, the entry's one
// ordering routine: the neighbor is shifted past strictly nearer or
// strictly farther ones only, so equal RTTs keep arrival order (what a
// stable sort of the whole entry would yield) with no allocation.
func (e *Entry) settle(i int) {
	ns := e.neighbors
	for ; i > 0 && ns[i].RTT < ns[i-1].RTT; i-- {
		ns[i], ns[i-1] = ns[i-1], ns[i]
	}
	for ; i+1 < len(ns) && ns[i+1].RTT < ns[i].RTT; i++ {
		ns[i], ns[i+1] = ns[i+1], ns[i]
	}
}

// index returns the position of the neighbor with the given ID, or -1.
func (e *Entry) index(id ident.ID) int {
	for i := range e.neighbors {
		if e.neighbors[i].ID.Equal(id) {
			return i
		}
	}
	return -1
}

// remove drops the neighbor with the given ID, reporting whether it was
// present.
func (e *Entry) remove(id ident.ID) bool {
	i := e.index(id)
	if i >= 0 {
		e.neighbors = append(e.neighbors[:i], e.neighbors[i+1:]...)
	}
	return i >= 0
}

// Table is a user's neighbor table: D rows of B entries.
type Table struct {
	params ident.Params
	k      int
	owner  Record
	rows   [][]Entry
}

// NewTable creates an empty table for the owner. K must be >= 1; the
// paper recommends K > 1 for resilience and uses K = 4.
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
	rows := make([][]Entry, params.Digits)
	for i := range rows {
		rows[i] = make([]Entry, params.Base)
	}
	return &Table{params: params, k: k, owner: owner, rows: rows}, nil
}

// Owner returns the table owner's record.
func (t *Table) Owner() Record { return t.owner }

// K returns the table's neighbor cap per entry.
func (t *Table) K() int { return t.k }

// Params returns the ID-space parameters.
func (t *Table) Params() ident.Params { return t.params }

// Entry returns the (i,j)-entry. The caller may read it but must mutate
// only through Table methods.
func (t *Table) Entry(i int, j ident.Digit) *Entry { return &t.rows[i][j] }

// Insert places a neighbor into the entry it belongs to: row l = common
// prefix length with the owner, column n.ID[l]. Inserting the owner
// itself or a neighbor equal to the owner's digit at the diagonal is
// rejected (those entries must stay empty per Definition 3). It reports
// whether the table changed.
func (t *Table) Insert(n Neighbor) bool {
	if n.ID.Equal(t.owner.ID) {
		return false
	}
	l := t.owner.ID.CommonPrefixLen(n.ID)
	if l >= t.params.Digits {
		return false
	}
	return t.rows[l][n.ID.Digit(l)].insert(n, t.k)
}

// Remove deletes the neighbor with the given ID from whichever entry
// holds it, reporting whether it was present and the row/column if so.
func (t *Table) Remove(id ident.ID) (row int, col ident.Digit, ok bool) {
	if id.Equal(t.owner.ID) {
		return 0, 0, false
	}
	l := t.owner.ID.CommonPrefixLen(id)
	if l >= t.params.Digits {
		return 0, 0, false
	}
	j := id.Digit(l)
	if t.rows[l][j].remove(id) {
		return l, j, true
	}
	return 0, 0, false
}

// Contains reports whether the neighbor with the given ID is present.
func (t *Table) Contains(id ident.ID) bool {
	l := t.owner.ID.CommonPrefixLen(id)
	if l >= t.params.Digits {
		return false
	}
	return t.rows[l][id.Digit(l)].index(id) >= 0
}

// NeighborCount returns the total number of neighbors across all entries.
func (t *Table) NeighborCount() int {
	total := 0
	for i := range t.rows {
		for j := range t.rows[i] {
			total += len(t.rows[i][j].neighbors)
		}
	}
	return total
}

// ForEachNeighbor visits every neighbor in the table.
func (t *Table) ForEachNeighbor(fn func(row int, col ident.Digit, n Neighbor)) {
	for i := range t.rows {
		for j := range t.rows[i] {
			for _, n := range t.rows[i][j].neighbors {
				fn(i, ident.Digit(j), n)
			}
		}
	}
}

// Forward is the user half of routine FORWARD (Fig. 2, lines 6-9), the
// only statement of the walk: a user at forwarding level `level` sends
// one copy through every non-diagonal (s,j)-entry of rows s in
// [level, D-1] (diagonal entries are empty by Definition 3). Which
// neighbor of the entry is primary, and what the copy for its
// (s+1)-digit subtree carries at forward_level s+1, are the visitor's.
func (t *Table) Forward(level int, visit func(row int, e *Entry)) {
	for s := level; s < t.params.Digits; s++ {
		own := t.owner.ID.Digit(s)
		for j := range t.rows[s] {
			if ident.Digit(j) != own {
				visit(s, &t.rows[s][j])
			}
		}
	}
}

// ServerTable is the key server's single-row table: B entries, the (0,j)-
// entry holding the K users with smallest RTT to the server among users
// whose 0th ID digit is j.
type ServerTable struct {
	params  ident.Params
	k       int
	host    vnet.HostID
	entries []Entry
}

// NewServerTable creates an empty key-server table.
func NewServerTable(params ident.Params, k int, host vnet.HostID) (*ServerTable, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("overlay: K must be >= 1, got %d", k)
	}
	return &ServerTable{
		params:  params,
		k:       k,
		host:    host,
		entries: make([]Entry, params.Base),
	}, nil
}

// Host returns the key server's host.
func (s *ServerTable) Host() vnet.HostID { return s.host }

// Entry returns the (0,j)-entry.
func (s *ServerTable) Entry(j ident.Digit) *Entry { return &s.entries[j] }

// Insert places a user into the (0, ID[0])-entry.
func (s *ServerTable) Insert(n Neighbor) bool {
	return s.entries[n.ID.Digit(0)].insert(n, s.k)
}

// Remove deletes the user from its entry.
func (s *ServerTable) Remove(id ident.ID) bool {
	return s.entries[id.Digit(0)].remove(id)
}

// Forward is the key server's half of FORWARD (lines 3-5): one
// level-1 copy through each (0,j)-entry.
func (s *ServerTable) Forward(visit func(row int, e *Entry)) {
	for j := range s.entries {
		visit(0, &s.entries[j])
	}
}
