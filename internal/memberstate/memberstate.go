// Package memberstate holds the key server's view of per-member client
// state — each user's keyring and last-known group key — in a flat,
// rank-indexed slot table so a million members cost a million fixed-size
// slots instead of a million string-keyed map entries.
//
// The store owns a private ident.RankTable: a member is assigned a dense
// rank on first touch and releases it on Remove, so the slot slice stops
// growing once membership reaches its high-water mark and freed slots
// are reused under churn. A read-write lock guards membership changes
// (rank assignment, slot-slice growth); steady-state per-member reads
// and writes take only the read side, so the rekey pipeline's parallel
// apply stage scales as it did with the previous mutex-striped shards.
//
// The slot contents and the *keytree.Keyring values are not themselves
// synchronized. The pipeline preserves safety by partitioning work so
// each user is touched by exactly one worker per stage, which is the
// natural shape anyway: one keyring belongs to one user.
package memberstate

import (
	"sync"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
)

type slot struct {
	keyring  *keytree.Keyring
	groupKey keycrypt.Key
	hasGroup bool
}

// Store maps user IDs to member state through dense ranks. The zero
// value is not usable; call NewStore.
type Store struct {
	mu    sync.RWMutex
	ranks *ident.RankTable
	slots []slot
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
		slots: make([]slot, 0, capacityHint),
	}
}

// withSlot runs fn on the member's slot, assigning a rank (and growing
// the slot slice) on first touch. Fast path: rank already assigned, so
// fn runs under the read lock — concurrent writers to distinct slots do
// not contend, and the lock keeps the slice from being regrown out from
// under the write.
func (s *Store) withSlot(u ident.ID, fn func(*slot)) {
	s.mu.RLock()
	if r, ok := s.ranks.RankOf(u); ok {
		fn(&s.slots[r])
		s.mu.RUnlock()
		return
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.ranks.Assign(u)
	for len(s.slots) < s.ranks.Width() {
		s.slots = append(s.slots, slot{})
	}
	fn(&s.slots[r])
}

// PutKeyring installs (or replaces) a user's keyring.
func (s *Store) PutKeyring(u ident.ID, kr *keytree.Keyring) {
	s.withSlot(u, func(sl *slot) { sl.keyring = kr })
}

// Keyring returns a user's keyring, or nil if the user has none.
func (s *Store) Keyring(u ident.ID) *keytree.Keyring {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.ranks.RankOf(u)
	if !ok {
		return nil
	}
	return s.slots[r].keyring
}

// SetGroupKey records the group key a user currently holds.
func (s *Store) SetGroupKey(u ident.ID, k keycrypt.Key) {
	s.withSlot(u, func(sl *slot) {
		sl.groupKey = k
		sl.hasGroup = true
	})
}

// GroupKey returns the group key a user holds; ok is false if the user
// has never received one.
func (s *Store) GroupKey(u ident.ID) (keycrypt.Key, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.ranks.RankOf(u)
	if !ok || !s.slots[r].hasGroup {
		return keycrypt.Key{}, false
	}
	return s.slots[r].groupKey, true
}

// Remove deletes all state for a user, releasing its rank for reuse.
func (s *Store) Remove(u ident.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.ranks.Release(u); ok {
		s.slots[r] = slot{}
	}
}

// Len returns the number of users with any recorded state.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ranks.Len()
}
