package ident

import "fmt"

// Rank is a dense per-member index: the group's current members are
// assigned ranks 0..n-1 (with holes only where churn outpaces reuse), so
// hot per-member state can live in flat, preallocated slices indexed by
// rank instead of string-keyed heap maps. A member keeps its rank for as
// long as it stays in the group; the rank returns to a free list when the
// member leaves and is reused by a later joiner.
//
// Ranks are an implementation-layer notion: nothing in the protocol (IDs,
// prefixes, split decisions, key derivation) depends on them, so two runs
// that process the same joins and leaves in the same order assign the same
// ranks — rank assignment is as deterministic as the membership sequence
// that drives it.
type Rank uint32

// NoRank is the sentinel for "this ID holds no rank".
const NoRank = Rank(^uint32(0))

// RankTable is the bidirectional ID↔rank mapping with a free list. It is
// the single allocator of ranks for one group; every structure that wants
// rank-indexed storage shares one table (or owns a private one) and sizes
// its slices to the table's Width.
//
// A RankTable is not safe for concurrent mutation. Concurrent reads
// (RankOf/IDOf) are safe between mutations, which matches the rekey
// pipeline's shape: membership changes happen in the single-threaded mark
// stage; the parallel stages only read.
type RankTable struct {
	byID map[string]Rank
	ids  []ID   // rank -> ID; zero ID for free slots
	free []Rank // released ranks, reused LIFO
}

// NewRankTable creates an empty table. capacityHint pre-sizes the
// internal storage (0 is fine).
func NewRankTable(capacityHint int) *RankTable {
	if capacityHint < 0 {
		capacityHint = 0
	}
	return &RankTable{
		byID: make(map[string]Rank, capacityHint),
		ids:  make([]ID, 0, capacityHint),
	}
}

// Len returns the number of IDs currently holding a rank.
func (rt *RankTable) Len() int { return len(rt.byID) }

// Width returns the size a rank-indexed slice must have to be indexable
// by every rank the table has ever assigned: max assigned rank + 1. Width
// never shrinks, so slices sized once per growth high-water mark stay
// valid across churn.
func (rt *RankTable) Width() int { return len(rt.ids) }

// Assign gives the ID a rank, reusing the most recently freed rank if one
// exists and extending the dense range otherwise. Assigning an ID that
// already holds a rank returns its current rank unchanged.
func (rt *RankTable) Assign(id ID) Rank {
	if r, ok := rt.byID[id.Key()]; ok {
		return r
	}
	var r Rank
	if n := len(rt.free); n > 0 {
		r = rt.free[n-1]
		rt.free = rt.free[:n-1]
	} else {
		r = Rank(len(rt.ids))
		rt.ids = append(rt.ids, ID{})
	}
	rt.ids[r] = id
	rt.byID[id.Key()] = r
	return r
}

// Release returns the ID's rank to the free list. ok is false if the ID
// held no rank.
func (rt *RankTable) Release(id ID) (Rank, bool) {
	r, ok := rt.byID[id.Key()]
	if !ok {
		return NoRank, false
	}
	delete(rt.byID, id.Key())
	rt.ids[r] = ID{}
	rt.free = append(rt.free, r)
	return r, true
}

// RankOf returns the ID's current rank.
func (rt *RankTable) RankOf(id ID) (Rank, bool) {
	r, ok := rt.byID[id.Key()]
	if !ok {
		return NoRank, false
	}
	return r, true
}

// IDOf returns the ID holding the rank; ok is false for free or
// never-assigned ranks.
func (rt *RankTable) IDOf(r Rank) (ID, bool) {
	if int(r) >= len(rt.ids) {
		return ID{}, false
	}
	id := rt.ids[r]
	return id, !id.IsZero()
}

// RankOfKey is RankOf for callers that already hold the ID's digit key
// (e.g. a full-length Prefix), avoiding an ID conversion.
func (rt *RankTable) RankOfKey(key string) (Rank, bool) {
	r, ok := rt.byID[key]
	if !ok {
		return NoRank, false
	}
	return r, true
}

// Each calls fn for every (ID, rank) pair in rank order. Mutating the
// table during iteration is not allowed.
func (rt *RankTable) Each(fn func(id ID, r Rank)) {
	for i, id := range rt.ids {
		if !id.IsZero() {
			fn(id, Rank(i))
		}
	}
}

// CheckConsistency verifies the bidirectional invariant: every mapped ID
// round-trips through its rank, every occupied slot is mapped, and the
// free list holds exactly the unoccupied slots. It returns the first
// violation, or nil. Intended for tests and audits.
func (rt *RankTable) CheckConsistency() error {
	occupied := 0
	for i, id := range rt.ids {
		if id.IsZero() {
			continue
		}
		occupied++
		r, ok := rt.byID[id.Key()]
		if !ok {
			return fmt.Errorf("ident: rank %d holds %v but the ID is unmapped", i, id)
		}
		if r != Rank(i) {
			return fmt.Errorf("ident: rank %d holds %v, which maps to rank %d", i, id, r)
		}
	}
	if occupied != len(rt.byID) {
		return fmt.Errorf("ident: %d occupied slots for %d mapped IDs", occupied, len(rt.byID))
	}
	if got, want := len(rt.free), len(rt.ids)-occupied; got != want {
		return fmt.Errorf("ident: free list has %d ranks, want %d", got, want)
	}
	seen := make(map[Rank]bool, len(rt.free))
	for _, r := range rt.free {
		if int(r) >= len(rt.ids) {
			return fmt.Errorf("ident: free rank %d beyond width %d", r, len(rt.ids))
		}
		if !rt.ids[r].IsZero() {
			return fmt.Errorf("ident: free rank %d is occupied by %v", r, rt.ids[r])
		}
		if seen[r] {
			return fmt.Errorf("ident: rank %d on the free list twice", r)
		}
		seen[r] = true
	}
	return nil
}
