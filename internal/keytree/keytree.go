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
// members join and leave); k-nodes sit in a slab addressed through a
// string-keyed slot index with a free list, so slots — like ranks — are
// reused under churn and the slab stops growing once membership reaches
// its high-water mark. Ranks and slots are implementation detail: key
// derivation, message layout, and every protocol-visible output depend
// only on IDs, versions, and intervals, so same-seed runs are
// byte-identical to the map-backed representation.
package keytree

import (
	"fmt"
	"sort"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/obs"
	"tmesh/internal/work"
)

// Opts configures a Tree.
type Opts struct {
	// RealCrypto enables actual AES-GCM key wrapping. When false,
	// encryptions carry correct IDs but empty ciphertexts — sufficient
	// (and much faster) for the rekey-cost and bandwidth experiments
	// that only count encryptions.
	RealCrypto bool
	// Obs is the optional telemetry registry. When set, Regenerate
	// times each level-1 subtree work unit of its fan-out; durations
	// land only in the registry, never in the rekey message, so output
	// stays byte-identical with telemetry on or off.
	Obs *obs.Registry
	// CapacityHint pre-sizes the node slabs and rank table for an
	// expected member count, so large soaks pay for growth once instead
	// of through repeated reallocation. Zero is fine for small trees.
	CapacityHint int
	// Label, when non-empty, wraps each Regenerate worker's run in the
	// pprof label set {group=Label, stage=regen}, so regen CPU — even
	// on the shared long-lived helpers — attributes to the tenant in
	// -pprof profiles. Profiling-only; never influences the message.
	Label string
}

type node struct {
	key     keycrypt.Key
	version uint64
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
	kindex    map[string]int32 // prefix key -> k-node slot (levels 0..D-1)
	kseg      []node           // k-node slab
	kfree     []int32          // free k-node slots, reused LIFO
	epochs    map[string]uint64
	interval  uint64

	// Scratch reused across intervals so steady-state Mark/Regenerate
	// does not re-allocate per-batch working state.
	updatedScratch map[string]ident.Prefix
	groupIdx       [][]int // plan indices per level-1 digit; slot Base is the root group
	groupOrder     []int
	offsets        []int
}

// epochs is keyed by user-ID string, NOT by rank: a rejoin epoch must
// survive the member's absence from the group (it is what makes a
// rejoiner's individual key fresh), while the member's rank is released
// at leave time and may meanwhile be reused by a different ID.

// Message is one batch rekey message: all encryptions generated at the
// end of a rekey interval, before any splitting.
type Message struct {
	// Interval is the rekey interval sequence number.
	Interval uint64
	// Encryptions are ordered deepest-first so a receiver can unwrap
	// its path bottom-up in a single pass.
	Encryptions []keycrypt.Encryption
}

// Cost returns the paper's rekey cost: the number of encryptions in the
// message.
func (m *Message) Cost() int { return len(m.Encryptions) }

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
		params:    params,
		seed:      append([]byte(nil), seed...),
		nonceSeed: keycrypt.DeriveKey(seed, "nonce-seed").Bytes(),
		opts:      opts,
		structure: ident.NewTree(params),
		ranks:     ident.NewRankTable(hint),
		useg:      make([]node, 0, hint),
		kindex:    make(map[string]int32, hint),
		kseg:      make([]node, 0, hint),
		epochs:    make(map[string]uint64),
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

// unode returns the u-node for the full-length prefix key, or nil.
func (t *Tree) unode(key string) *node {
	r, ok := t.ranks.RankOfKey(key)
	if !ok {
		return nil
	}
	return &t.useg[r]
}

// knode returns the k-node slot for the prefix key, or nil.
func (t *Tree) knode(key string) *node {
	slot, ok := t.kindex[key]
	if !ok {
		return nil
	}
	return &t.kseg[slot]
}

// allocKnode returns a zeroed slot for the prefix key, reusing a freed
// slot when one exists. Only Mark calls it, so the slab never grows
// while Regenerate's workers hold pointers into it.
func (t *Tree) allocKnode(key string) int32 {
	var slot int32
	if n := len(t.kfree); n > 0 {
		slot = t.kfree[n-1]
		t.kfree = t.kfree[:n-1]
	} else {
		slot = int32(len(t.kseg))
		t.kseg = append(t.kseg, node{})
	}
	t.kseg[slot] = node{}
	t.kindex[key] = slot
	return slot
}

func (t *Tree) freeKnode(key string, slot int32) {
	delete(t.kindex, key)
	t.kseg[slot] = node{}
	t.kfree = append(t.kfree, slot)
}

// GroupKey returns the current group key; ok is false while the group is
// empty.
func (t *Tree) GroupKey() (keycrypt.Key, bool) {
	n := t.knode(ident.EmptyPrefix.Key())
	if n == nil {
		return keycrypt.Key{}, false
	}
	return n.key, true
}

// KeyOf returns the key and version of the k-node at the prefix.
func (t *Tree) KeyOf(p ident.Prefix) (keycrypt.Key, uint64, bool) {
	n := t.knode(p.Key())
	if n == nil {
		return keycrypt.Key{}, 0, false
	}
	return n.key, n.version, true
}

// IndividualKey returns the individual key of a current user.
func (t *Tree) IndividualKey(u ident.ID) (keycrypt.Key, bool) {
	n := t.unode(u.Key())
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
	un := t.unode(u.Key())
	if un == nil {
		return nil, fmt.Errorf("keytree: user %v not in tree", u)
	}
	out := []PathKey{{ID: u.AsPrefix(), Key: un.key, Version: un.version}}
	for l := t.params.Digits - 1; l >= 0; l-- {
		p := u.Prefix(l)
		kn := t.knode(p.Key())
		if kn == nil {
			return nil, fmt.Errorf("keytree: missing k-node %v on path of %v", p, u)
		}
		out = append(out, PathKey{ID: p, Key: kn.key, Version: kn.version})
	}
	return out, nil
}

// JoinKeyring builds the keyring u starts with: its current path keys,
// as the key server's join-time unicast delivers them. Every driver that
// plays a member (core.Group, the key plane, rekeyd.World) keys its
// joiners through this one call.
func (t *Tree) JoinKeyring(u ident.ID) (*Keyring, error) {
	path, err := t.PathKeys(u)
	if err != nil {
		return nil, err
	}
	return NewKeyring(t.params, u, path)
}

func (t *Tree) deriveKey(label string, version uint64) keycrypt.Key {
	return keycrypt.DeriveKey(t.seed, fmt.Sprintf("%s/v%d", label, version))
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
	// Leaves are processed before joins, so an ID freed by a leave may
	// be reassigned to a joiner within the same interval (the joiner
	// gets a fresh epoch, hence fresh keys).
	leaving := make(map[string]bool, len(leaves))
	for _, l := range leaves {
		if !t.structure.Contains(l) {
			return nil, fmt.Errorf("keytree: leave of non-member %v", l)
		}
		if leaving[l.Key()] {
			return nil, fmt.Errorf("keytree: duplicate leave %v in batch", l)
		}
		leaving[l.Key()] = true
	}
	joining := make(map[string]bool, len(joins))
	for _, j := range joins {
		if t.structure.Contains(j) && !leaving[j.Key()] {
			return nil, fmt.Errorf("keytree: join of existing member %v", j)
		}
		if joining[j.Key()] {
			return nil, fmt.Errorf("keytree: duplicate join %v in batch", j)
		}
		joining[j.Key()] = true
	}

	// updated marks k-node prefixes whose keys must change: every
	// k-node on the path from a changed u-node to the root.
	if t.updatedScratch == nil {
		t.updatedScratch = make(map[string]ident.Prefix)
	}
	clear(t.updatedScratch)
	updated := t.updatedScratch
	markPath := func(u ident.ID) {
		for l := 0; l < t.params.Digits; l++ {
			p := u.Prefix(l)
			updated[p.Key()] = p
		}
	}

	// Structural phase: remove departed u-nodes (pruning empty
	// k-nodes), then add joined u-nodes (creating missing k-nodes).
	for _, u := range leaves {
		markPath(u)
		if err := t.structure.Remove(u); err != nil {
			return nil, err
		}
		if r, ok := t.ranks.Release(u); ok {
			t.useg[r] = node{}
		}
	}
	for _, u := range joins {
		markPath(u)
		if err := t.structure.Insert(u); err != nil {
			return nil, err
		}
		epoch := t.epochs[u.Key()] + 1
		t.epochs[u.Key()] = epoch
		r := t.ranks.Assign(u)
		for len(t.useg) < t.ranks.Width() {
			t.useg = append(t.useg, node{})
		}
		t.useg[r] = node{
			key:     t.deriveKey("u:"+u.Key(), epoch),
			version: epoch,
		}
	}
	// Drop k-nodes pruned from the structure; create k-nodes that the
	// structure now has but the key tree does not.
	for key, slot := range t.kindex {
		if !t.structure.HasNode(ident.PrefixFromKey(key)) {
			t.freeKnode(key, slot)
			delete(updated, key)
		}
	}
	for key, p := range updated {
		if !t.structure.HasNode(p) {
			delete(updated, key)
			continue
		}
		if _, ok := t.kindex[key]; !ok {
			t.allocKnode(key) // key material assigned by Regenerate
		}
	}

	// Order the updated k-nodes deepest first, ties by key, for a
	// deterministic message layout (and so receivers unwrap bottom-up).
	ordered := make([]ident.Prefix, 0, len(updated))
	for _, p := range updated {
		ordered = append(ordered, p)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Len() != ordered[j].Len() {
			return ordered[i].Len() > ordered[j].Len()
		}
		return ordered[i].Key() < ordered[j].Key()
	})
	slots := make([]int32, len(ordered))
	for i, p := range ordered {
		slots[i] = t.kindex[p.Key()]
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
			g = int(p.Key()[0]) // level-1 digit
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
	runUnit := func(fn func(indices []int, wr *keycrypt.Wrapper) error, indices []int, wr *keycrypt.Wrapper) error {
		if subtreeHist == nil {
			return fn(indices, wr)
		}
		start := time.Now()
		err := fn(indices, wr)
		subtreeHist.Observe(int64(time.Since(start)))
		subtreeCount.Inc()
		return err
	}

	// One work.Run per phase over the level-1-subtree units. Each slot
	// gets one keycrypt.Wrapper so the AES-GCM wraps inside its units
	// batch their fixed allocations; Wrapper output is byte-identical to
	// the one-shot WrapSeeded, keeping the message independent of the
	// fan-out.
	errs := make([]error, len(groupOrder))
	runGroups := func(fn func(indices []int, wr *keycrypt.Wrapper) error) error {
		work.Run(parallelism, len(groupOrder), func(_ int, next func() (int, bool)) {
			obs.WithStage(t.opts.Label, "regen", func() {
				wr := keycrypt.NewWrapper(t.nonceSeed)
				for {
					i, ok := next()
					if !ok {
						return
					}
					errs[i] = runUnit(fn, t.groupIdx[groupOrder[i]], wr)
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
	if err := runGroups(func(indices []int, _ *keycrypt.Wrapper) error {
		for _, i := range indices {
			p := plan.Updated[i]
			n := &t.kseg[plan.slots[i]]
			n.version++
			n.key = t.deriveKey("k:"+p.Key(), n.version+t.interval<<32)
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
	if err := runGroups(func(indices []int, wr *keycrypt.Wrapper) error {
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
				var childKey keycrypt.Key
				if child.Len() == t.params.Digits {
					childKey = t.unode(child.Key()).key
				} else {
					childKey = t.knode(child.Key()).key
				}
				enc, err := t.wrap(wr, childKey, child, parent.key, p, parent.version)
				if err != nil {
					wErr = err
					return
				}
				out[j] = enc
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
	if !t.opts.RealCrypto {
		return keycrypt.Encryption{ID: kekID, KeyID: keyID, KeyVersion: version}, nil
	}
	enc, err := wr.WrapSeeded(kek, kekID, newKey, keyID, version, t.interval)
	if err != nil {
		return keycrypt.Encryption{}, fmt.Errorf("keytree: wrapping key %v: %w", keyID, err)
	}
	return enc, nil
}

// CheckStructure verifies that the key tree's nodes are exactly the ID
// tree's nodes: one k-node per internal node, one u-node per leaf. It
// returns the first violation, or nil.
func (t *Tree) CheckStructure() error {
	wantK := 0
	var err error
	t.structure.Walk(func(p ident.Prefix, size int) bool {
		if p.Len() == t.params.Digits {
			if _, ok := t.ranks.RankOfKey(p.Key()); !ok {
				err = fmt.Errorf("keytree: missing u-node %v", p)
				return false
			}
			return true
		}
		wantK++
		if _, ok := t.kindex[p.Key()]; !ok {
			err = fmt.Errorf("keytree: missing k-node %v", p)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if len(t.kindex) != wantK {
		return fmt.Errorf("keytree: %d k-nodes for %d internal ID-tree nodes", len(t.kindex), wantK)
	}
	if t.ranks.Len() != t.structure.Size() {
		return fmt.Errorf("keytree: %d u-nodes for %d users", t.ranks.Len(), t.structure.Size())
	}
	return nil
}
