// Package memberstate holds a keyring per member in a flat, rank-indexed
// slot table, so a million members cost a million pointer slots instead
// of a million string-keyed map entries.
// bench-only: goes with item 21.
//
// The store owns a private ident.RankTable: a member is assigned a dense
// rank when its keyring is put and releases it on Remove, so the slot
// slice stops growing once membership reaches its high-water mark and
// freed slots are reused under churn. A read-write lock guards
// membership changes (rank assignment, slot-slice growth); reads take
// only the read side, so a parallel apply stage's lookups do not
// contend.
//
// The *keytree.Keyring values are not themselves synchronized: an
// applier partitions its work so each keyring is touched by exactly one
// worker.
package memberstate

import (
	"sync"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
)

// Store maps user IDs to keyrings through dense ranks. The zero value is
// not usable; call NewStore.
type Store struct {
	mu    sync.RWMutex
	ranks *ident.RankTable
	slots []*keytree.Keyring
}

// NewStore creates an empty store.
func NewStore() *Store { return NewStoreSized(0) }

// NewStoreSized creates an empty store pre-sized for an expected member
// count, so large soaks pay for slot growth once up front.
func NewStoreSized(capacityHint int) *Store {
	if capacityHint < 0 {
		capacityHint = 0
	}
	return &Store{
		ranks: ident.NewRankTable(capacityHint),
		slots: make([]*keytree.Keyring, 0, capacityHint),
	}
}

// PutKeyring installs (or replaces) a user's keyring, assigning the user
// a rank (and growing the slot slice) on first touch.
func (s *Store) PutKeyring(u ident.ID, kr *keytree.Keyring) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.ranks.Assign(u)
	for len(s.slots) < s.ranks.Width() {
		s.slots = append(s.slots, nil)
	}
	s.slots[r] = kr
}

// Keyring returns a user's keyring, or nil if the user has none.
func (s *Store) Keyring(u ident.ID) *keytree.Keyring {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.ranks.RankOf(u)
	if !ok {
		return nil
	}
	return s.slots[r]
}

// Remove deletes a user's keyring, releasing its rank for reuse.
func (s *Store) Remove(u ident.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.ranks.Release(u); ok {
		s.slots[r] = nil
	}
}

// Len returns the number of users holding a keyring.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ranks.Len()
}
