package keytree

import (
	"fmt"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
)

// Keyring is a user's view of its key path: the individual key plus the
// D k-node keys from its u-node up to the group key. A user is "given the
// individual key contained in its corresponding u-node as well as the
// keys contained in the k-nodes on the path from its corresponding u-node
// to the root".
//
// The path has exactly D+1 keys — one per prefix length of the owner's ID
// — so the ring stores them in a flat slice indexed by level rather than
// a map keyed by prefix string: constant size per member, no per-key map
// overhead, which is what lets a million keyrings sit in RAM at once.
// Level l's prefix is id.Prefix(l), so it is not stored: the slice holds
// no pointers for the collector to scan, and Apply adds nothing to it.
type Keyring struct {
	id     ident.ID
	levels []ringKey // levels[l] = current key for id.Prefix(l); levels[D] = individual key
}

// ringKey is one held key and its version.
type ringKey struct {
	key     keycrypt.Key
	version uint64
}

// NewKeyring initialises a user's keyring from the path-keys message the
// key server unicasts at join time.
func NewKeyring(params ident.Params, u ident.ID, path []PathKey) (*Keyring, error) {
	kr := &Keyring{id: u, levels: make([]ringKey, params.Digits+1)}
	seen := make([]bool, params.Digits+1)
	for _, pk := range path {
		if !pk.ID.IsPrefixOfID(u) {
			return nil, fmt.Errorf("keytree: path key %v is not on %v's path", pk.ID, u)
		}
		kr.levels[pk.ID.Len()] = ringKey{key: pk.Key, version: pk.Version}
		seen[pk.ID.Len()] = true
	}
	for l := 0; l <= params.Digits; l++ {
		if !seen[l] {
			return nil, fmt.Errorf("keytree: path key for level %d missing", l)
		}
	}
	return kr, nil
}

// ID returns the owner's user ID.
func (kr *Keyring) ID() ident.ID { return kr.id }

// GroupKey returns the owner's current group key.
func (kr *Keyring) GroupKey() (keycrypt.Key, bool) {
	if len(kr.levels) == 0 {
		return keycrypt.Key{}, false
	}
	return kr.levels[0].key, true
}

// Key returns the current key held for a path prefix.
func (kr *Keyring) Key(p ident.Prefix) (keycrypt.Key, bool) {
	if !p.IsPrefixOfID(kr.id) || p.Len() >= len(kr.levels) {
		return keycrypt.Key{}, false
	}
	return kr.levels[p.Len()].key, true
}

// Needs implements Lemma 3 for this user.
func (kr *Keyring) Needs(e keycrypt.Encryption) bool { return e.NeededBy(kr.id) }

// Apply processes a rekey message (or any subset of one delivered by the
// splitting scheme): it unwraps, deepest-first, every encryption the user
// needs and installs the new keys. It returns the number of keys
// updated. Encryptions the user does not need are ignored, so Apply
// works identically with or without upstream splitting. An encryption
// whose wrapped key is not strictly above its encrypting key on the
// path is rejected: every honest wrap seals a key under a deeper one.
func (kr *Keyring) Apply(msg *Message) (int, error) { return kr.ApplyWith(nil, msg) }

// ApplyWith is Apply unwrapping through u, one apply worker's batch
// state (nil: one-shot unwraps). Only k-node KEKs are cached in u: the
// individual key is this member's alone, so its unwrap goes through
// UnwrapOnce, which reuses u's scratch but not its cipher state.
func (kr *Keyring) ApplyWith(u *keycrypt.Unwrapper, msg *Message) (int, error) {
	var buf [8]int32 // indices, not copies, keep the frame small; at most D+1
	needed := buf[:0]
	for i, e := range msg.Encryptions {
		if kr.Needs(e) {
			needed = append(needed, int32(i))
		}
	}
	// Deepest encrypting key first: each unwrap may need the key
	// installed by the previous one. The slice holds at most D+1
	// entries, so a stable insertion sort beats sort.SliceStable and —
	// unlike it — allocates nothing, keeping the per-interval apply
	// path flat at soak scale.
	for i := 1; i < len(needed); i++ {
		for j := i; j > 0 && msg.Encryptions[needed[j-1]].ID.Len() < msg.Encryptions[needed[j]].ID.Len(); j-- {
			needed[j-1], needed[j] = needed[j], needed[j-1]
		}
	}
	for n, i := range needed {
		e := &msg.Encryptions[i]
		// Needs guarantees e.ID is on the owner's path, so the KEK is
		// always held; the wrapped key's ID must be on the path too or
		// installing it would clobber an unrelated level, and strictly
		// above e.ID, or a holder of a shallower key could overwrite a
		// deeper one it does not hold.
		if !e.KeyID.IsPrefixOfID(kr.id) || e.KeyID.Len() >= e.ID.Len() {
			return n, fmt.Errorf("keytree: %v received key %v outside its path above %v", kr.id, e.KeyID, e.ID)
		}
		kek := kr.levels[e.ID.Len()].key
		var newKey keycrypt.Key
		var err error
		if e.ID.Len() == len(kr.levels)-1 {
			newKey, err = u.UnwrapOnce(kek, *e)
		} else {
			newKey, err = u.Unwrap(kek, *e)
		}
		if err != nil {
			return n, fmt.Errorf("keytree: %v unwrapping %v: %w", kr.id, e.KeyID, err)
		}
		kr.levels[e.KeyID.Len()] = ringKey{key: newKey, version: e.KeyVersion}
	}
	return len(needed), nil
}
