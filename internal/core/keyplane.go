package core

import (
	"hash/fnv"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
)

// KeyPlane is the key-management core with no network under it: the
// server's key tree, its members' keyrings in one slab indexed by the
// tree's ranks (the plane keeps no second index), and the applier that
// hands every survivor its path slice of a rekey message — the flat
// state that holds a million members. Its one driver is
// chaos.KeyTenant, which both key-only soaks step: the scale soak
// streams its churn draw into one, and the tenancy host's KeyPlane
// groups replay a workload.Schedule. A driver only says who joins and
// who leaves, then calls Rekey.
type KeyPlane struct {
	tree    *keytree.Tree
	pending keytree.Pending
	rings   keytree.Keyrings // by tree rank, as wide as the rank table
	limit   int
	obs     *obs.Registry // pprof stage labels; nil = unlabelled
}

// NewKeyPlane builds an empty key plane. opts are the tree's; its
// CapacityHint also sizes the keyring slab. limit is an upper bound on
// the regen and apply fan-out (<= 0: none).
func NewKeyPlane(params ident.Params, seed []byte, opts keytree.Opts, limit int) (*KeyPlane, error) {
	tree, err := keytree.New(params, seed, opts)
	if err != nil {
		return nil, err
	}
	return &KeyPlane{tree: tree, rings: keytree.NewKeyrings(tree), limit: limit, obs: opts.Obs}, nil
}

// Tree exposes the server's key tree (read-only use).
func (w *KeyPlane) Tree() *keytree.Tree { return w.tree }

// Keyring returns a view of a member's keyring slot until the next
// Rekey, nil if it has none.
func (w *KeyPlane) Keyring(id ident.ID) *keytree.Keyring {
	if r, ok := w.tree.Ranks().RankOf(id); ok && w.rings.Keyed(r) {
		return w.rings.Keyring(r)
	}
	return nil
}

// Join queues a join for the next Rekey.
func (w *KeyPlane) Join(id ident.ID) { w.pending.Join(id) }

// Leave queues a leave for the next Rekey and wipes the leaver's
// keyring at once, before the boundary removes it from the tree.
func (w *KeyPlane) Leave(id ident.ID) {
	w.pending.Leave(id)
	if r, ok := w.tree.Ranks().RankOf(id); ok {
		w.rings.Leave(r)
	}
}

// Rekey runs one interval: the queued joins and leaves are flushed
// through the tree, every survivor (each ranked member that did not
// just join) applies the rekey message, and every joiner receives its
// path keys by the join-time unicast. It returns the joins and leaves
// the flush applied, the message's cost and the number of keys
// installed across the survivors' keyrings. A survivor without a
// keyring is an error.
func (w *KeyPlane) Rekey() (joins, leaves []ident.ID, cost int, installed int64, err error) {
	msg, joins, leaves, installed, err := w.rekey()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return joins, leaves, msg.Cost(), installed, nil
}

// rekey is Rekey returning the interval's message.
func (w *KeyPlane) rekey() (msg *keytree.Message, joins, leaves []ident.ID, installed int64, err error) {
	msg, joins, leaves, err = w.tree.Flush(&w.pending, w.limit)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	survivors := w.tree.Size() - len(joins)
	obs.WithStage(w.obs, "apply", func() { installed, err = w.apply(msg, survivors) })
	if err != nil {
		return nil, nil, nil, 0, err
	}
	obs.WithStage(w.obs, "deliver", func() {
		for _, id := range joins {
			r, _ := w.tree.Ranks().RankOf(id)
			w.rings.Join(r)
		}
	})
	return msg, joins, leaves, installed, nil
}

// Digest commits to the server's and every member's group key, in ID
// order (see KeyringDigest).
func (w *KeyPlane) Digest() uint64 {
	gk, ok := w.tree.GroupKey()
	return KeyringDigest(gk, ok, w.tree.Structure().Members(ident.EmptyPrefix), func(id ident.ID) (keycrypt.Key, bool) {
		if kr := w.Keyring(id); kr != nil {
			return kr.GroupKey()
		}
		return keycrypt.Key{}, false
	})
}

// KeyringDigest folds the server's group key and every listed member's
// group key (or its absence) into one FNV-64a value: runs — or two
// drivers of one world — that end with equal digests ended with equal
// group keys (keys below them do not enter it), whatever transport
// carried the keys there.
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
