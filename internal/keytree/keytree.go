// Package keytree implements the paper's modified key tree (Section 2.4)
// and the identification scheme that ties users, keys, and encryptions
// together.
//
// The key tree is a rooted tree whose root holds the group key. It
// contains u-nodes (one per user, holding that user's individual key) and
// k-nodes (holding the group key or auxiliary keys). Unlike the original
// key tree of Wong-Gouda-Lam, the modified tree has a fixed height D and
// grows horizontally: its structure matches the ID tree exactly — the
// u-node of user u corresponds to the ID-tree leaf u.ID, and a k-node
// exists for every internal ID-tree node. The ID of a key is the ID of
// its node; the ID of an encryption {k'}_k is the ID of the encrypting
// key k. A user therefore needs an encryption iff the encryption's ID is
// a prefix of the user's ID (Lemma 3) — the test that makes stateless
// rekey-message splitting possible.
//
// Each rekey interval the key server processes the batch of J joins and
// L leaves: u-nodes are added/removed, k-nodes created or pruned, every
// key on a path from a changed u-node to the root is replaced, and for
// every updated k-node one encryption per child is generated (the new key
// wrapped under each child's current key).
//
// Storage layout: the hot node state lives in flat slabs, not per-node
// heap objects. U-nodes sit in a slice indexed by the member's dense
// ident.Rank (the tree owns the RankTable and assigns/releases ranks as
// members join and leave); k-nodes sit in a slab indexed by the slot the
// ID tree gives the same internal node (ident.Tree.Slot), so the key
// tree keeps no prefix index of its own. Slots, like ranks, are reused
// under churn, and both slabs stop growing once membership reaches its
// high-water mark. Parent links make a member's path keys and its
// slice of the last rekey message (Tree.PathWraps) D array hops from
// its rank, and Keyrings holds keyrings in one slab by the same ranks.
// Ranks and slots are implementation detail: key derivation, message
// layout, and every protocol-visible output depend only on IDs,
// versions, and intervals, so same-seed runs are byte-identical to the
// map-backed representation.
package keytree

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/obs"
	"tmesh/internal/work"
)

// Opts configures a Tree.
type Opts struct {
	// RealCrypto is read by nothing: every tree wraps with AES-GCM.
	// bench/daemon.go, bench/keyplane.go and bench/sim.go still set it,
	// and it goes when they stop.
	RealCrypto bool
	// Obs is the optional telemetry registry. When set, Regenerate
	// times each level-1 subtree work unit of its fan-out and the stages
	// run under its pprof labels (obs.WithStage); neither reaches the
	// rekey message, so output stays byte-identical with telemetry on or
	// off.
	Obs *obs.Registry
	// CapacityHint pre-sizes the node slabs and rank table for an
	// expected member count, so large soaks pay for growth once instead
	// of through repeated reallocation. Zero is fine for small trees.
	CapacityHint int
}

type node struct {
	key     keycrypt.Key
	version uint64
	parent  int32  // the parent k-node's slot (the root's own), set when Mark creates the node
	wrap    int32  // the index of the encryption under this key in the message of
	wrapAt  uint64 // this interval, as Regenerate wraps it
}

// Tree is the key server's modified key tree. It is not safe for
// concurrent use: Mark and Regenerate must be called from one
// goroutine, though Regenerate may internally fan its crypto work out
// across workers.
type Tree struct {
	params    ident.Params
	seed      []byte
	nonceSeed []byte // deterministic GCM nonce derivation (see keycrypt.WrapSeeded)
	opts      Opts

	structure *ident.Tree      // ID tree of current members
	ranks     *ident.RankTable // member ID <-> dense u-node rank
	useg      []node           // u-nodes, indexed by rank (len == ranks.Width())
	kseg      []node           // k-nodes, indexed by ID-tree slot (len == structure.Width()); a free slot is zero
	epochs    map[ident.ID]uint64
	interval  uint64

	// Scratch reused across intervals so steady-state Mark/Regenerate
	// does not re-allocate per-batch working state.
	updatedScratch map[ident.Prefix]struct{}
	mark           worker  // Mark's key derivation; Regenerate's workers have their own
	groupIdx       [][]int // plan indices per level-1 digit; slot Base is the root group
	groupOrder     []int
	offsets        []int
}

// epochs is keyed by user ID, NOT by rank: a rejoin epoch must
// survive the member's absence from the group (it is what makes a
// rejoiner's individual key fresh), while the member's rank is released
// at leave time and may meanwhile be reused by a different ID.

// Message is one batch rekey message: all encryptions generated at the
// end of a rekey interval, before any splitting.
type Message struct {
	// Interval is the rekey interval sequence number.
	Interval uint64
	// Encryptions are laid out in blocks by ID length, deepest first,
	// so a receiver unwraps its path bottom-up in a single pass; within
	// a block IDs strictly increase (by Compare), each ID once. The split
	// relies on it (split.AppendShare), and any share of a message
	// keeps it.
	Encryptions []keycrypt.Encryption
}

// Cost returns the paper's rekey cost: the number of encryptions in the
// message.
func (m *Message) Cost() int { return len(m.Encryptions) }

// SeedOf is the key-material seed of a tree built for a run under an
// integer seed. The simulator soak, the scale soak and the daemon world
// all derive it here, so one seed builds one tree on every wire.
func SeedOf(seed int64) []byte { return []byte(fmt.Sprintf("tmesh-%d", seed)) }

// New creates an empty modified key tree. The seed makes derived key
// material reproducible per simulation run.
func New(params ident.Params, seed []byte, opts Opts) (*Tree, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	hint := opts.CapacityHint
	if hint < 0 {
		hint = 0
	}
	return &Tree{
		params:         params,
		seed:           append([]byte(nil), seed...),
		nonceSeed:      keycrypt.DeriveKey(seed, "nonce-seed").Bytes(),
		opts:           opts,
		structure:      ident.NewTree(params),
		ranks:          ident.NewRankTable(hint),
		useg:           make([]node, 0, hint),
		epochs:         make(map[ident.ID]uint64),
		updatedScratch: make(map[ident.Prefix]struct{}),
		mark:           worker{kd: keycrypt.NewDeriver(seed)},
	}, nil
}

// Params returns the ID-space parameters.
func (t *Tree) Params() ident.Params { return t.params }

// Size returns the number of users in the tree.
func (t *Tree) Size() int { return t.structure.Size() }

// Interval returns the number of batches processed so far.
func (t *Tree) Interval() uint64 { return t.interval }

// Structure returns the underlying ID tree. Callers must treat it as
// read-only; its shape always matches the key tree exactly.
func (t *Tree) Structure() *ident.Tree { return t.structure }

// Ranks returns the tree's member rank table. Callers must treat it as
// read-only: the tree is the sole allocator of ranks, assigning on join
// and releasing on leave during Mark. Sharing the table lets per-member
// state elsewhere (delivery records, keyring stores) index flat slices
// by the same dense rank.
func (t *Tree) Ranks() *ident.RankTable { return t.ranks }

// unode returns the u-node of the user ID, or nil.
func (t *Tree) unode(u ident.ID) *node {
	if r, ok := t.ranks.RankOf(u); ok {
		return &t.useg[r]
	}
	return nil
}

// knode returns the k-node at the prefix, or nil.
func (t *Tree) knode(p ident.Prefix) *node {
	if slot, ok := t.structure.Slot(p); ok {
		return &t.kseg[slot]
	}
	return nil
}

// kslot returns the slot of the existing k-node at the prefix.
func (t *Tree) kslot(p ident.Prefix) int32 {
	slot, _ := t.structure.Slot(p)
	return int32(slot)
}

// GroupKey returns the current group key; ok is false while the group is
// empty.
func (t *Tree) GroupKey() (keycrypt.Key, bool) {
	n := t.knode(ident.EmptyPrefix)
	if n == nil {
		return keycrypt.Key{}, false
	}
	return n.key, true
}

// KeyOf returns the key and version of the k-node at the prefix.
func (t *Tree) KeyOf(p ident.Prefix) (keycrypt.Key, uint64, bool) {
	n := t.knode(p)
	if n == nil {
		return keycrypt.Key{}, 0, false
	}
	return n.key, n.version, true
}

// IndividualKey returns the individual key of a current user.
func (t *Tree) IndividualKey(u ident.ID) (keycrypt.Key, bool) {
	n := t.unode(u)
	if n == nil {
		return keycrypt.Key{}, false
	}
	return n.key, true
}

// PathKey is one key on a user's path, as unicast to a joining user.
type PathKey struct {
	ID      ident.Prefix
	Key     keycrypt.Key
	Version uint64
}

// PathKeys returns the keys on the path from u's u-node to the root:
// the individual key first, then k-node keys up to the group key. This
// is the message the key server unicasts to a user after assigning its
// ID.
func (t *Tree) PathKeys(u ident.ID) ([]PathKey, error) {
	un := t.unode(u)
	if un == nil {
		return nil, fmt.Errorf("keytree: user %v not in tree", u)
	}
	out := []PathKey{{ID: u.AsPrefix(), Key: un.key, Version: un.version}}
	for l := t.params.Digits - 1; l >= 0; l-- {
		p := u.Prefix(l)
		kn := t.knode(p)
		if kn == nil {
			return nil, fmt.Errorf("keytree: missing k-node %v on path of %v", p, u)
		}
		out = append(out, PathKey{ID: p, Key: kn.key, Version: kn.version})
	}
	return out, nil
}

// JoinKeyring builds the keyring u starts with: its current path keys,
// as the key server's join-time unicast delivers them. Every driver that
// plays a member keys its joiners with these keys: rekeyd.World through
// this call, core.Group and the key plane through Keyrings.Join.
func (t *Tree) JoinKeyring(u ident.ID) (*Keyring, error) {
	path, err := t.PathKeys(u)
	if err != nil {
		return nil, err
	}
	return NewKeyring(t.params, u, path)
}

// pathInto copies rank r's path keys into levels, as a Keyring holds
// them, up the parent links.
func (t *Tree) pathInto(r ident.Rank, levels []keycrypt.Key) {
	n := &t.useg[r]
	for l := t.params.Digits; l >= 0; l-- {
		levels[l] = n.key
		n = &t.kseg[n.parent]
	}
}

// PathWraps appends to dst the indices, in the message of the last
// Regenerate, of the encryptions rank r needs: by Lemma 3, those under
// the keys on its u-node-to-root path. They come deepest first, found
// by D hops up the parent links. A free rank needs none.
func (t *Tree) PathWraps(r ident.Rank, dst []int32) []int32 {
	if int(r) >= len(t.useg) || t.useg[r].version == 0 {
		return dst
	}
	n := &t.useg[r]
	for l := t.params.Digits; l > 0; l-- {
		if n.wrapAt == t.interval {
			dst = append(dst, n.wrap)
		}
		n = &t.kseg[n.parent]
	}
	return dst
}

// Resync builds the recovery form of the join-time unicast: u's k-node
// path keys, group key included, each wrapped under u's individual key,
// as a message of the current interval. Only u can open it, so it may
// cross any wire, and u installs it through Keyring.Apply like any
// other copy; at any other member it installs nothing.
//
// The seeded nonces stay safe (see keycrypt.WrapSeeded): the KEK is an
// individual key, of which there is one per member epoch; the AAD binds
// (u, key ID, version) and the context is the interval, within which a
// (key ID, version) names exactly one key. So a repeated (KEK, AAD,
// context) wraps the same key again, which is the same ciphertext —
// including the interval's own wrap of u's parent under u.
func (t *Tree) Resync(u ident.ID) (*Message, error) {
	path, err := t.PathKeys(u)
	if err != nil {
		return nil, err
	}
	kek := path[0] // the individual key; the k-node keys follow, deepest first
	encs := make([]keycrypt.Encryption, 0, len(path)-1)
	for _, pk := range path[1:] {
		enc, err := keycrypt.WrapSeeded(kek.Key, kek.ID, pk.Key, pk.ID, pk.Version, t.nonceSeed, t.interval)
		if err != nil {
			return nil, fmt.Errorf("keytree: wrapping key %v: %w", pk.ID, err)
		}
		encs = append(encs, enc)
	}
	return &Message{Interval: t.interval, Encryptions: encs}, nil
}

// worker is one goroutine's crypto state: the key-derivation HMAC keyed
// by the tree's seed, its label buffer and, in Regenerate, a Wrapper.
type worker struct {
	kd    *keycrypt.Deriver
	label []byte
	wr    *keycrypt.Wrapper
}

// key derives the key of node p at a version: keycrypt.DeriveKey(seed,
// kind+":"+the digits of p+"/v"+the decimal version), kind 'u' for a
// u-node and 'k' for a k-node.
func (w *worker) key(kind byte, p ident.Prefix, version uint64) keycrypt.Key {
	w.label = p.AppendDigits(append(w.label[:0], kind, ':'))
	w.label = strconv.AppendUint(append(w.label, "/v"...), version, 10)
	return w.kd.Derive(w.label)
}

// BatchPlan is the output of Mark: the structural outcome of one rekey
// interval, ready to have its keys regenerated. A plan is bound to the
// tree state right after Mark and must be passed to Regenerate exactly
// once, before any further Mark.
type BatchPlan struct {
	// Interval is the rekey interval sequence number this plan belongs to.
	Interval uint64
	// Updated lists the k-nodes whose keys must change, deepest first
	// (ties by node key) — the order encryptions appear in the Message.
	Updated []ident.Prefix
	// slots holds each updated node's slab slot, resolved at Mark time
	// so Regenerate's hot loops index the slab directly.
	slots []int32
	spent bool
}

// Batch processes one rekey interval: J joins and L leaves, structural
// maintenance, key updates along all changed paths, and encryption
// generation. Joins and leaves must be disjoint, joins must not already
// be members, and leaves must be members.
//
// Batch is Mark followed by a sequential Regenerate; callers wanting
// parallel key regeneration invoke the two stages themselves.
func (t *Tree) Batch(joins, leaves []ident.ID) (*Message, error) {
	plan, err := t.Mark(joins, leaves)
	if err != nil {
		return nil, err
	}
	return t.Regenerate(plan, 1)
}

// Mark is the structural stage of a rekey interval: it validates the
// batch, removes departed u-nodes, inserts joined u-nodes (with fresh
// individual keys), prunes and creates k-nodes, and computes the
// deepest-first list of k-nodes whose keys must be regenerated. The
// tree's key material is NOT yet updated — the returned plan must be
// handed to Regenerate to produce the interval's rekey message.
func (t *Tree) Mark(joins, leaves []ident.ID) (*BatchPlan, error) {
	t.interval++

	// Validate the batch up front so the tree never ends half-updated.
	// An ID may leave and join in one batch: the joiner gets a fresh
	// epoch, hence fresh keys.
	leaving := make(map[ident.ID]bool, len(leaves))
	for _, l := range leaves {
		if !t.structure.Contains(l) {
			return nil, fmt.Errorf("keytree: leave of non-member %v", l)
		}
		if leaving[l] {
			return nil, fmt.Errorf("keytree: duplicate leave %v in batch", l)
		}
		leaving[l] = true
	}
	joining := make(map[ident.ID]bool, len(joins))
	for _, j := range joins {
		if t.structure.Contains(j) && !leaving[j] {
			return nil, fmt.Errorf("keytree: join of existing member %v", j)
		}
		if joining[j] {
			return nil, fmt.Errorf("keytree: duplicate join %v in batch", j)
		}
		joining[j] = true
	}

	// updated marks k-node prefixes whose keys must change: every
	// k-node on the path from a changed u-node to the root.
	updated := t.updatedScratch
	clear(updated)
	markPath := func(u ident.ID) {
		for l := 0; l < t.params.Digits; l++ {
			updated[u.Prefix(l)] = struct{}{}
		}
	}

	// Structural phase. Departed u-nodes go first, so a joiner may take
	// a leaver's rank. The joiners enter the ID tree before the leavers
	// leave it, and an ID that leaves and rejoins stays in it: a k-node
	// is pruned only if its subtree is empty once the whole batch is in,
	// and a subtree that empties and refills in one batch keeps its
	// k-node, key and version.
	for _, u := range leaves {
		markPath(u)
		if r, ok := t.ranks.Release(u); ok {
			t.useg[r] = node{}
		}
	}
	for _, u := range joins {
		markPath(u)
		if leaving[u] {
			continue
		}
		if err := t.structure.Insert(u); err != nil {
			return nil, err
		}
	}
	t.kseg = append(t.kseg, make([]node, t.structure.Width()-len(t.kseg))...)
	// Remove the leavers. The k-nodes whose only member leaves are
	// pruned: zeroed, so a node created later in the freed slot starts
	// fresh.
	for _, u := range leaves {
		if joining[u] {
			continue
		}
		for l := t.params.Digits - 1; l >= 0 && t.structure.SubtreeSize(u.Prefix(l)) == 1; l-- {
			delete(updated, u.Prefix(l))
			t.kseg[t.kslot(u.Prefix(l))] = node{}
		}
		if err := t.structure.Remove(u); err != nil {
			return nil, err
		}
	}

	// Order the updated k-nodes deepest first, ties by key, for a
	// deterministic message layout (and so receivers unwrap bottom-up).
	ordered := make([]ident.Prefix, 0, len(updated))
	for p := range updated {
		ordered = append(ordered, p)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Len() != ordered[j].Len() {
			return ordered[i].Len() > ordered[j].Len()
		}
		return ordered[i].Compare(ordered[j]) < 0
	})
	// Link the updated k-nodes to their parents (a new one needs it; a
	// parent's slot never changes while the child lives), then the
	// joiners' u-nodes under them.
	slots := make([]int32, len(ordered))
	for i, p := range ordered {
		slots[i] = t.kslot(p)
		t.kseg[slots[i]].parent = t.kslot(p.Parent())
	}
	for _, u := range joins {
		epoch := t.epochs[u] + 1
		t.epochs[u] = epoch
		r := t.ranks.Assign(u)
		for len(t.useg) < t.ranks.Width() {
			t.useg = append(t.useg, node{})
		}
		t.useg[r] = node{
			key:     t.mark.key('u', u.AsPrefix(), epoch),
			version: epoch,
			parent:  t.kslot(u.Prefix(t.params.Digits - 1)),
		}
	}
	return &BatchPlan{Interval: t.interval, Updated: ordered, slots: slots}, nil
}

// Regenerate is the crypto stage of a rekey interval: it bumps the
// version and re-derives the key of every k-node in the plan, then
// wraps each new key under its children's current keys (Section 2.4's
// one-encryption-per-child rule), producing the interval's rekey
// message.
//
// parallelism is an upper bound on the width of both crypto phases
// (values < 1 mean 1, i.e. inline); the width itself is work.Run's. The
// work fans out across level-1 ID subtrees — the paper's natural unit
// of independence: by Lemma 3 an encryption generated in
// one level-1 subtree is only ever needed by users of that subtree, and
// no key on one subtree's paths feeds another's wrapping except through
// the root, which is handled as its own unit after a barrier. The
// resulting message is byte-identical at any parallelism: derivation
// depends only on (seed, node, version, interval), nonces are derived
// via keycrypt.WrapSeeded, and workers write encryptions into disjoint
// precomputed ranges of one slice laid out in plan order.
func (t *Tree) Regenerate(plan *BatchPlan, parallelism int) (*Message, error) {
	if plan == nil || plan.spent {
		return nil, fmt.Errorf("keytree: batch plan already regenerated")
	}
	if plan.Interval != t.interval {
		return nil, fmt.Errorf("keytree: stale batch plan (plan interval %d, tree interval %d)", plan.Interval, t.interval)
	}
	plan.spent = true
	if parallelism < 1 {
		parallelism = 1
	}

	// Group the plan's node indices by level-1 subtree; the root (the
	// only node of length 0) gets the slot past the last digit. Groups
	// touch disjoint slab entries in the update phase and are read-only
	// in the wrap phase, so workers never contend. The slab itself is
	// not grown here — Mark already allocated every needed slot.
	if t.groupIdx == nil {
		t.groupIdx = make([][]int, t.params.Base+1)
	}
	for _, g := range t.groupOrder {
		t.groupIdx[g] = t.groupIdx[g][:0]
	}
	t.groupOrder = t.groupOrder[:0]
	for i, p := range plan.Updated {
		g := t.params.Base
		if p.Len() > 0 {
			g = p.Digit(0) // level-1 digit
		}
		if len(t.groupIdx[g]) == 0 {
			t.groupOrder = append(t.groupOrder, g)
		}
		t.groupIdx[g] = append(t.groupIdx[g], i)
	}
	groupOrder := t.groupOrder

	// Fan-out telemetry: one duration sample per level-1 subtree work
	// unit per phase. The instruments are hoisted here (nil on a nil
	// registry, making every update below a no-op without clock reads).
	subtreeHist := t.opts.Obs.Histogram("keytree_regen_subtree_ns", obs.LatencyBuckets)
	subtreeCount := t.opts.Obs.Counter("keytree_regen_subtrees")
	runUnit := func(fn func(indices []int, wk *worker) error, indices []int, wk *worker) error {
		if subtreeHist == nil {
			return fn(indices, wk)
		}
		start := time.Now()
		err := fn(indices, wk)
		subtreeHist.Observe(int64(time.Since(start)))
		subtreeCount.Inc()
		return err
	}

	// One work.Run per phase over the level-1-subtree units. Each slot
	// gets one worker, so the HMACs and the AES-GCM wraps inside its
	// units batch their fixed allocations; both are byte-identical to the
	// one-shot forms, keeping the message independent of the fan-out.
	errs := make([]error, len(groupOrder))
	runGroups := func(fn func(indices []int, wk *worker) error) error {
		work.Run(parallelism, len(groupOrder), func(_ int, next func() (int, bool)) {
			obs.WithStage(t.opts.Obs, "regen", func() {
				wk := &worker{kd: keycrypt.NewDeriver(t.seed), wr: keycrypt.NewWrapper(t.nonceSeed)}
				for {
					i, ok := next()
					if !ok {
						return
					}
					errs[i] = runUnit(fn, t.groupIdx[groupOrder[i]], wk)
				}
			})
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Key update phase: bump versions and re-derive keys. Each node is
	// independent of every other, so groups run concurrently; the
	// barrier before the wrap phase guarantees the root (and every
	// other parent) wraps only fully regenerated child keys.
	if err := runGroups(func(indices []int, wk *worker) error {
		for _, i := range indices {
			n := &t.kseg[plan.slots[i]]
			n.version++
			n.key = wk.key('k', plan.Updated[i], n.version+t.interval<<32)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Encryption phase: for each updated k-node, wrap its new key under
	// each child's current key. Children at level D are u-nodes
	// (individual keys); others are k-nodes whose keys — if they were
	// also updated — are already the new ones, so a user unwraps its
	// path bottom-up starting from its immutable individual key.
	// Per-node offsets into a single output slice are precomputed from
	// the tree's child counts, so workers fill disjoint ranges and the
	// message layout is independent of worker scheduling. The slice
	// itself is freshly allocated — it escapes into the Message — but
	// it is the only per-interval allocation of this phase.
	t.offsets = t.offsets[:0]
	total := 0
	for _, p := range plan.Updated {
		t.offsets = append(t.offsets, total)
		total += t.structure.ChildCount(p)
	}
	offsets := t.offsets
	encs := make([]keycrypt.Encryption, total)
	if err := runGroups(func(indices []int, wk *worker) error {
		for _, i := range indices {
			p := plan.Updated[i]
			parent := &t.kseg[plan.slots[i]]
			out := encs[offsets[i]:]
			j := 0
			var wErr error
			t.structure.EachChildDigit(p, func(d ident.Digit) {
				if wErr != nil {
					return
				}
				child := p.Child(d)
				var cn *node
				if child.Len() == t.params.Digits {
					cn = t.unode(ident.ID(child))
				} else {
					cn = t.knode(child)
				}
				enc, err := t.wrap(wk.wr, cn.key, child, parent.key, p, parent.version)
				if err != nil {
					wErr = err
					return
				}
				out[j] = enc
				cn.wrap, cn.wrapAt = int32(offsets[i]+j), t.interval
				j++
			})
			if wErr != nil {
				return wErr
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	return &Message{Interval: t.interval, Encryptions: encs}, nil
}

func (t *Tree) wrap(wr *keycrypt.Wrapper, kek keycrypt.Key, kekID ident.Prefix, newKey keycrypt.Key, keyID ident.Prefix, version uint64) (keycrypt.Encryption, error) {
	enc, err := wr.WrapSeeded(kek, kekID, newKey, keyID, version, t.interval)
	if err != nil {
		return keycrypt.Encryption{}, fmt.Errorf("keytree: wrapping key %v: %w", keyID, err)
	}
	return enc, nil
}

// CheckStructure verifies that the key tree's nodes are exactly the ID
// tree's nodes: a keyed k-node at every internal node's slot, and one
// u-node per leaf and no other. It returns the first violation, or nil.
func (t *Tree) CheckStructure() error {
	var err error
	t.structure.Walk(func(p ident.Prefix, size int) bool {
		if p.Len() == t.params.Digits {
			if _, ok := t.ranks.RankOf(ident.ID(p)); !ok {
				err = fmt.Errorf("keytree: missing u-node %v", p)
			}
		} else if t.knode(p).version == 0 {
			err = fmt.Errorf("keytree: missing k-node %v", p)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if t.ranks.Len() != t.structure.Size() {
		return fmt.Errorf("keytree: %d u-nodes for %d users", t.ranks.Len(), t.structure.Size())
	}
	return nil
}
