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
// Level l's prefix is id.Prefix(l) and an unwrap checks versions in the
// AAD, so neither is stored: the slice holds no pointers for the
// collector to scan, and Apply adds nothing to it.
type Keyring struct {
	id     ident.ID
	levels []keycrypt.Key // levels[l] = current key for id.Prefix(l); levels[D] = individual key
}

// NewKeyring initialises a user's keyring from the path-keys message the
// key server unicasts at join time.
func NewKeyring(params ident.Params, u ident.ID, path []PathKey) (*Keyring, error) {
	kr := &Keyring{id: u, levels: make([]keycrypt.Key, params.Digits+1)}
	seen := make([]bool, params.Digits+1)
	for _, pk := range path {
		if !u.HasPrefix(pk.ID) {
			return nil, fmt.Errorf("keytree: path key %v is not on %v's path", pk.ID, u)
		}
		kr.levels[pk.ID.Len()] = pk.Key
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
	return kr.levels[0], true
}

// Key returns the current key held for a path prefix.
func (kr *Keyring) Key(p ident.Prefix) (keycrypt.Key, bool) {
	if !kr.id.HasPrefix(p) || p.Len() >= len(kr.levels) {
		return keycrypt.Key{}, false
	}
	return kr.levels[p.Len()], true
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
// bench-only: the engine's appliers all call ApplyWith.
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
	return kr.unwrap(u, msg.Encryptions, needed)
}

// unwrap installs encs[i] for each i of idx, in order: the one
// check-and-unwrap loop of every apply. Each encryption must be under a
// key on the owner's path, no shallower than the one before it (an
// unwrap may need the key the previous one installed), and must wrap a
// key on the path strictly above its KEK, or installing it would
// clobber an unrelated level, or let a holder of a shallower key
// overwrite a deeper one it does not hold.
func (kr *Keyring) unwrap(u *keycrypt.Unwrapper, encs []keycrypt.Encryption, idx []int32) (int, error) {
	prev := len(kr.levels)
	for n, i := range idx {
		e := &encs[i]
		switch {
		case !kr.id.HasPrefix(e.ID):
			return n, fmt.Errorf("keytree: %v received an encryption under %v, off its path", kr.id, e.ID)
		case e.ID.Len() > prev:
			return n, fmt.Errorf("keytree: %v received an encryption under %v after a deeper one", kr.id, e.ID)
		case !kr.id.HasPrefix(e.KeyID) || e.KeyID.Len() >= e.ID.Len():
			return n, fmt.Errorf("keytree: %v received key %v outside its path above %v", kr.id, e.KeyID, e.ID)
		}
		prev = e.ID.Len()
		kek := kr.levels[prev]
		var newKey keycrypt.Key
		var err error
		if prev == len(kr.levels)-1 {
			newKey, err = u.UnwrapOnce(kek, *e)
		} else {
			newKey, err = u.Unwrap(kek, *e)
		}
		if err != nil {
			return n, fmt.Errorf("keytree: %v unwrapping %v: %w", kr.id, e.KeyID, err)
		}
		kr.levels[e.KeyID.Len()] = newKey
	}
	return len(idx), nil
}

// Keyrings holds one tree's members' keyrings in one pointer-free slab:
// rank r's slot is the D+1 keys of its Keyring. A slot whose individual
// key is all zero holds none (a derived key never is).
type Keyrings struct {
	tree *Tree
	slab []keycrypt.Key
}

// NewKeyrings returns an empty slab for t's members, sized for its
// Opts.CapacityHint.
func NewKeyrings(t *Tree) Keyrings {
	return Keyrings{tree: t, slab: make([]keycrypt.Key, 0, max(t.opts.CapacityHint, 0)*(t.params.Digits+1))}
}

// slot is rank r's D+1 entries.
func (ks *Keyrings) slot(r ident.Rank) []keycrypt.Key {
	w := ks.tree.params.Digits + 1
	return ks.slab[int(r)*w : (int(r)+1)*w : (int(r)+1)*w]
}

// Keyed reports whether rank r's slot holds a keyring.
func (ks *Keyrings) Keyed(r ident.Rank) bool {
	i := (int(r)+1)*(ks.tree.params.Digits+1) - 1
	return i < len(ks.slab) && !ks.slab[i].IsZero()
}

// Keyring returns rank r's slot as its member's keyring: a view that
// reads and applies in place, until the next Join grows the slab.
func (ks *Keyrings) Keyring(r ident.Rank) *Keyring {
	id, _ := ks.tree.ranks.IDOf(r)
	return &Keyring{id: id, levels: ks.slot(r)}
}

// Join fills rank r's slot with its member's path keys, as the key
// server's join-time unicast delivers them, growing the slab to hold it.
func (ks *Keyrings) Join(r ident.Rank) {
	if n := (int(r) + 1) * (ks.tree.params.Digits + 1); n > len(ks.slab) {
		ks.slab = append(ks.slab, make([]keycrypt.Key, n-len(ks.slab))...)
	}
	ks.tree.pathInto(r, ks.slot(r))
}

// Leave wipes rank r's slot.
func (ks *Keyrings) Leave(r ident.Rank) { clear(ks.slot(r)) }

// Apply applies msg, the message of the tree's last Regenerate, to rank
// r's keyring through u, unwrapping the encryptions Tree.PathWraps
// names, and returns the number of keys installed.
func (ks *Keyrings) Apply(u *keycrypt.Unwrapper, msg *Message, r ident.Rank) (int, error) {
	var buf [8]int32
	return ks.Keyring(r).unwrap(u, msg.Encryptions, ks.tree.PathWraps(r, buf[:0]))
}
