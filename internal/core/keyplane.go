package core

import (
	"hash/fnv"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/memberstate"
	"tmesh/internal/obs"
)

// KeyPlane is the key-management core with no network under it: the
// server's key tree, one keyring per member, and the indexed applier
// that hands every survivor its slice of a rekey message — the flat
// state that holds a million members. It is the one world behind both
// key-only soaks: chaos.RunScaleSoak draws its churn from an RNG, the
// tenancy host's KeyPlane profile from a workload.Schedule; each only
// decides who joins, who leaves and who survives, then calls Rekey.
type KeyPlane struct {
	tree  *keytree.Tree
	store *memberstate.Store
	ap    *indexedApplier
	limit int
	obs   *obs.Registry // pprof stage labels; nil = unlabelled
}

// NewKeyPlane builds an empty key plane. opts are the tree's, with real
// crypto always on: its members install keys. Its CapacityHint also
// sizes the keyring store. limit is an upper bound on the regen and
// apply fan-out (<= 0: none).
func NewKeyPlane(params ident.Params, seed []byte, opts keytree.Opts, limit int) (*KeyPlane, error) {
	opts.RealCrypto = true
	tree, err := keytree.New(params, seed, opts)
	if err != nil {
		return nil, err
	}
	store := memberstate.NewStoreSized(opts.CapacityHint)
	return &KeyPlane{
		tree: tree, store: store, limit: limit, obs: opts.Obs,
		ap: newIndexedApplier(params, store, limit, opts.Obs),
	}, nil
}

// Tree exposes the server's key tree (read-only use).
func (w *KeyPlane) Tree() *keytree.Tree { return w.tree }

// Keyring returns a member's keyring, nil if it has none.
func (w *KeyPlane) Keyring(id ident.ID) *keytree.Keyring { return w.store.Keyring(id) }

// Rekey runs one interval: the pending batch is flushed through the
// tree, every survivor (the membership after the leaves, before the
// joins) applies the rekey message, and every joiner receives its path
// keys by the join-time unicast. It returns the joins and leaves the
// flush applied, the message's cost and the number of keys installed
// across the survivors' keyrings. A survivor without a keyring is an
// error.
func (w *KeyPlane) Rekey(p *keytree.Pending, survivors []ident.ID) (joins, leaves []ident.ID, cost int, installed int64, err error) {
	msg, joins, leaves, err := w.tree.Flush(p, w.limit)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	for _, id := range leaves {
		w.store.Remove(id)
	}
	obs.WithStage(w.obs, "apply", func() { installed, err = w.ap.Apply(msg, survivors) })
	if err != nil {
		return nil, nil, 0, 0, err
	}
	obs.WithStage(w.obs, "deliver", func() {
		for _, id := range joins {
			var kr *keytree.Keyring
			if kr, err = w.tree.JoinKeyring(id); err != nil {
				return
			}
			w.store.PutKeyring(id, kr)
		}
	})
	return joins, leaves, msg.Cost(), installed, err
}

// Digest commits to the final keyrings of the listed members (see
// KeyringDigest).
func (w *KeyPlane) Digest(members []ident.ID) uint64 {
	gk, ok := w.tree.GroupKey()
	return KeyringDigest(gk, ok, members, func(id ident.ID) (keycrypt.Key, bool) {
		if kr := w.Keyring(id); kr != nil {
			return kr.GroupKey()
		}
		return keycrypt.Key{}, false
	})
}

// KeyringDigest folds the server's group key and every listed member's
// group key (or its absence) into one FNV-64a value: runs — or two
// drivers of one world — that end with equal digests ended with equal
// keyrings, whatever transport carried the keys there.
func KeyringDigest(server keycrypt.Key, haveServer bool, members []ident.ID, groupKeyOf func(ident.ID) (keycrypt.Key, bool)) uint64 {
	h := fnv.New64a()
	put := func(label string, k keycrypt.Key) {
		h.Write([]byte(label))
		h.Write([]byte{'='})
		h.Write(k.Bytes())
		h.Write([]byte{'\n'})
	}
	if haveServer {
		put("server", server)
	}
	for _, id := range members {
		if gk, ok := groupKeyOf(id); ok {
			put(id.Key(), gk)
		} else {
			h.Write([]byte(id.Key()))
			h.Write([]byte("=missing\n"))
		}
	}
	return h.Sum64()
}
