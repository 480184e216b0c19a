package keytree

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
)

var tp = ident.Params{Digits: 2, Base: 3}

func newTree(t *testing.T, params ident.Params) *Tree {
	t.Helper()
	tr, err := New(params, []byte("test-seed"), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func ids(t *testing.T, params ident.Params, vals ...int) []ident.ID {
	t.Helper()
	out := make([]ident.ID, len(vals))
	for i, v := range vals {
		id, err := ident.FromInt(params, v)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = id
	}
	return out
}

func TestBatchValidation(t *testing.T) {
	tr := newTree(t, tp)
	m := ids(t, tp, 0, 1, 2)
	if _, err := tr.Batch(m, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Batch([]ident.ID{m[0]}, nil); err == nil {
		t.Error("joining an existing member should fail")
	}
	if _, err := tr.Batch(nil, ids(t, tp, 8)); err == nil {
		t.Error("leave of a non-member should fail")
	}
	if _, err := tr.Batch(ids(t, tp, 4, 4), nil); err == nil {
		t.Error("duplicate join in one batch should fail")
	}
	if _, err := tr.Batch(nil, ids(t, tp, 0, 0)); err == nil {
		t.Error("duplicate leave in one batch should fail")
	}
	if _, err := tr.Batch(ids(t, tp, 4), ids(t, tp, 4)); err == nil {
		t.Error("join of a non-member that also leaves should fail on the leave")
	}
	if _, err := New(ident.Params{}, nil, Opts{}); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestGroupKeyLifecycle(t *testing.T) {
	tr := newTree(t, tp)
	if _, ok := tr.GroupKey(); ok {
		t.Error("empty tree should have no group key")
	}
	if _, err := tr.Batch(ids(t, tp, 3), nil); err != nil {
		t.Fatal(err)
	}
	k1, ok := tr.GroupKey()
	if !ok {
		t.Fatal("group key missing after first join")
	}
	if _, err := tr.Batch(ids(t, tp, 4), nil); err != nil {
		t.Fatal(err)
	}
	k2, _ := tr.GroupKey()
	if k1.Equal(k2) {
		t.Error("group key must change across intervals with churn")
	}
	// Removing everyone empties the tree again.
	if _, err := tr.Batch(nil, ids(t, tp, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 0 {
		t.Errorf("Size = %d, want 0", tr.Size())
	}
	if _, ok := tr.GroupKey(); ok {
		t.Error("emptied tree should have no group key")
	}
	if err := tr.CheckStructure(); err != nil {
		t.Error(err)
	}
}

// TestEndToEndRekeying drives several intervals and verifies that every
// remaining user's keyring converges to the server's current keys using
// only the rekey messages (real crypto).
func TestEndToEndRekeying(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 4}
	tr := newTree(t, params)
	rng := rand.New(rand.NewSource(4))

	rings := make(map[ident.ID]*Keyring)
	live := make(map[ident.ID]ident.ID)

	applyAll := func(msg *Message) {
		t.Helper()
		for key, kr := range rings {
			if _, err := kr.Apply(msg); err != nil {
				t.Fatalf("user %v applying interval %d: %v", live[key], msg.Interval, err)
			}
		}
	}
	join := func(us []ident.ID, ls []ident.ID) {
		t.Helper()
		msg, err := tr.Batch(us, ls)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range ls {
			delete(rings, l)
			delete(live, l)
		}
		applyAll(msg)
		for _, u := range us {
			path, err := tr.PathKeys(u)
			if err != nil {
				t.Fatal(err)
			}
			kr, err := NewKeyring(params, u, path)
			if err != nil {
				t.Fatal(err)
			}
			rings[u] = kr
			live[u] = u
		}
	}

	// Interval 1: 20 initial joins.
	var initial []ident.ID
	used := make(map[int]bool)
	for len(initial) < 20 {
		v := rng.Intn(params.Capacity())
		if used[v] {
			continue
		}
		used[v] = true
		initial = append(initial, ids(t, params, v)...)
	}
	join(initial, nil)

	// Several churn intervals.
	for round := 0; round < 6; round++ {
		var js, lsv []ident.ID
		leftNow := make(map[int]bool)
		for v := range used {
			if rng.Float64() < 0.2 {
				lsv = append(lsv, ids(t, params, v)...)
				delete(used, v)
				leftNow[v] = true
				if len(lsv) >= 4 {
					break
				}
			}
		}
		for len(js) < 3 {
			v := rng.Intn(params.Capacity())
			if used[v] || leftNow[v] {
				continue
			}
			used[v] = true
			js = append(js, ids(t, params, v)...)
		}
		join(js, lsv)

		// Every live user's whole path must match the server's keys.
		want, ok := tr.GroupKey()
		if !ok {
			t.Fatal("server lost the group key")
		}
		for _, u := range live {
			kr := rings[u]
			got, ok := kr.GroupKey()
			if !ok || !got.Equal(want) {
				t.Fatalf("round %d: user %v group key diverged", round, u)
			}
			for l := 0; l < params.Digits; l++ {
				sk, _, ok := tr.KeyOf(u.Prefix(l))
				if !ok {
					t.Fatalf("server missing k-node %v", u.Prefix(l))
				}
				uk, ok := kr.Key(u.Prefix(l))
				if !ok || !uk.Equal(sk) {
					t.Fatalf("round %d: user %v diverged at level %d", round, u, l)
				}
			}
		}
		if err := tr.CheckStructure(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestForwardSecrecy: after a user leaves, its old keyring cannot decrypt
// traffic sealed with the new group key, and it cannot process the rekey
// message to obtain it.
func TestForwardSecrecy(t *testing.T) {
	params := ident.Params{Digits: 2, Base: 4}
	tr := newTree(t, params)
	members := ids(t, params, 0, 1, 5, 6)
	if _, err := tr.Batch(members, nil); err != nil {
		t.Fatal(err)
	}
	leaver := members[0]
	path, err := tr.PathKeys(leaver)
	if err != nil {
		t.Fatal(err)
	}
	leaverRing, err := NewKeyring(params, leaver, path)
	if err != nil {
		t.Fatal(err)
	}
	oldGroup, _ := leaverRing.GroupKey()

	msg, err := tr.Batch(nil, []ident.ID{leaver})
	if err != nil {
		t.Fatal(err)
	}
	// The leaver's old path keys cannot unwrap the new root key: every
	// encryption it "needs" by its old ID is now under keys it does not
	// hold (its subtree sibling structure changed under it), so Apply
	// either updates nothing or fails — and the group key stays old.
	_, _ = leaverRing.Apply(msg)
	stale, _ := leaverRing.GroupKey()
	newGroup, _ := tr.GroupKey()
	if stale.Equal(newGroup) {
		t.Fatal("departed user obtained the new group key")
	}
	// New traffic is opaque to the leaver.
	sealed, err := keycrypt.Seal(newGroup, []byte("post-departure secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keycrypt.Open(stale, sealed); err == nil {
		t.Fatal("departed user decrypted post-departure traffic")
	}
	if _, err := keycrypt.Open(oldGroup, sealed); err == nil {
		t.Fatal("old group key decrypted post-departure traffic")
	}
}

// TestBackwardSecrecy: a joining user cannot decrypt traffic sealed with
// the pre-join group key.
func TestBackwardSecrecy(t *testing.T) {
	params := ident.Params{Digits: 2, Base: 4}
	tr := newTree(t, params)
	if _, err := tr.Batch(ids(t, params, 0, 5), nil); err != nil {
		t.Fatal(err)
	}
	oldGroup, _ := tr.GroupKey()
	sealed, err := keycrypt.Seal(oldGroup, []byte("pre-join secret"))
	if err != nil {
		t.Fatal(err)
	}

	joiner := ids(t, params, 10)[0]
	if _, err := tr.Batch([]ident.ID{joiner}, nil); err != nil {
		t.Fatal(err)
	}
	path, err := tr.PathKeys(joiner)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewKeyring(params, joiner, path)
	if err != nil {
		t.Fatal(err)
	}
	gk, _ := ring.GroupKey()
	if gk.Equal(oldGroup) {
		t.Fatal("group key did not change on join")
	}
	if _, err := keycrypt.Open(gk, sealed); err == nil {
		t.Fatal("joiner decrypted pre-join traffic")
	}
}

// TestRejoinGetsFreshKeys: a user that leaves and rejoins with the same
// ID receives a different individual key (epoch bump).
func TestRejoinGetsFreshKeys(t *testing.T) {
	tr := newTree(t, tp)
	u := ids(t, tp, 4)[0]
	if _, err := tr.Batch([]ident.ID{u}, nil); err != nil {
		t.Fatal(err)
	}
	k1, _ := tr.IndividualKey(u)
	if _, err := tr.Batch(nil, []ident.ID{u}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.IndividualKey(u); ok {
		t.Error("departed user's individual key should be gone")
	}
	if _, err := tr.Batch([]ident.ID{u}, nil); err != nil {
		t.Fatal(err)
	}
	k2, _ := tr.IndividualKey(u)
	if k1.Equal(k2) {
		t.Error("rejoin must issue a fresh individual key")
	}
}

// TestLeaveAndRejoinSameBatch: an ID freed by a leave can be reassigned
// to a new user within the same interval; the new holder gets fresh keys.
func TestLeaveAndRejoinSameBatch(t *testing.T) {
	tr := newTree(t, tp)
	u := ids(t, tp, 4)[0]
	other := ids(t, tp, 7)[0]
	if _, err := tr.Batch([]ident.ID{u, other}, nil); err != nil {
		t.Fatal(err)
	}
	k1, _ := tr.IndividualKey(u)
	g1, _ := tr.GroupKey()
	if _, err := tr.Batch([]ident.ID{u}, []ident.ID{u}); err != nil {
		t.Fatalf("leave+rejoin in one batch: %v", err)
	}
	k2, _ := tr.IndividualKey(u)
	g2, _ := tr.GroupKey()
	if k1.Equal(k2) {
		t.Error("reused ID must get a fresh individual key")
	}
	if g1.Equal(g2) {
		t.Error("group key must change when the ID holder changes")
	}
	if err := tr.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2 {
		t.Errorf("Size = %d, want 2", tr.Size())
	}
}

// TestResyncRestoresOnlyItsMember: Resync(u) brings u's keyring, two
// intervals stale, level for level to the tree's path; a keyring as
// stale at another member installs nothing from it. The wrap of u's
// parent is byte-identical to the interval's own when the interval
// re-keyed that parent, which is the nonce contract's repeat case.
func TestResyncRestoresOnlyItsMember(t *testing.T) {
	tr := newTree(t, tp)
	members := ids(t, tp, 0, 1, 4, 6, 8)
	u, other := members[0], members[2]
	if _, err := tr.Batch(members, nil); err != nil {
		t.Fatal(err)
	}
	kr, err := tr.JoinKeyring(u)
	if err != nil {
		t.Fatal(err)
	}
	otherKr, err := tr.JoinKeyring(other)
	if err != nil {
		t.Fatal(err)
	}
	var last *Message
	for _, leave := range []ident.ID{members[4], members[1]} { // the second re-keys u's parent
		if last, err = tr.Batch(nil, []ident.ID{leave}); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := tr.Resync(u)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Interval != tr.Interval() || msg.Cost() != tp.Digits {
		t.Fatalf("resync of interval %d with %d encryptions, want %d with %d", msg.Interval, msg.Cost(), tr.Interval(), tp.Digits)
	}
	if n, err := otherKr.Apply(msg); n != 0 || err != nil {
		t.Fatalf("another member installed %d keys from u's resync (%v)", n, err)
	}
	if n, err := kr.Apply(msg); n != tp.Digits || err != nil {
		t.Fatalf("u installed %d of %d keys from its resync: %v", n, tp.Digits, err)
	}
	path, err := tr.PathKeys(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, pk := range path {
		if got, ok := kr.Key(pk.ID); !ok || !got.Equal(pk.Key) {
			t.Fatalf("resynced keyring disagrees with the tree at %v", pk.ID)
		}
	}
	var own, again *keycrypt.Encryption
	for i, e := range last.Encryptions {
		if e.ID == u.AsPrefix() {
			own = &last.Encryptions[i]
		}
	}
	for i, e := range msg.Encryptions {
		if e.KeyID == u.Prefix(tp.Digits-1) {
			again = &msg.Encryptions[i]
		}
	}
	if own == nil || again == nil || string(own.Ciphertext) != string(again.Ciphertext) {
		t.Fatal("the resync wraps u's parent differently from the interval's own wrap")
	}
}

// TestKeyringValidation covers keyring construction errors.
func TestKeyringValidation(t *testing.T) {
	params := ident.Params{Digits: 2, Base: 3}
	tr := newTree(t, params)
	u := ids(t, params, 4)[0]
	if _, err := tr.Batch([]ident.ID{u}, nil); err != nil {
		t.Fatal(err)
	}
	path, err := tr.PathKeys(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewKeyring(params, u, path[:1]); err == nil {
		t.Error("incomplete path should be rejected")
	}
	other := ids(t, params, 7)[0]
	if _, err := NewKeyring(params, other, path); err == nil {
		t.Error("path keys off the owner's path should be rejected")
	}
	if _, err := tr.PathKeys(other); err == nil {
		t.Error("PathKeys of a non-member should fail")
	}
}

// TestApplyWithAllocatesOnlyTheIndividualKeysAEAD pins a member's
// apply to the garbage its one-time KEK needs: on a keyring's first
// apply, a message that rekeys the whole path under the member's
// individual key allocates one AEAD (counted from one built here), and
// once every KEK is in the worker's Unwrapper an apply allocates
// nothing. Counting first applies also counts any state an apply
// would hang on the keyring.
func TestApplyWithAllocatesOnlyTheIndividualKeysAEAD(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 4}
	u := ids(t, params, 27)[0]
	path := make([]PathKey, params.Digits+1)
	for l := range path {
		path[l] = PathKey{ID: u.Prefix(l), Key: keycrypt.DeriveKey([]byte{byte(l)}, "old"), Version: 1}
	}
	// Shallowest first, so ApplyWith's sort has work to do.
	msg := &Message{Encryptions: make([]keycrypt.Encryption, params.Digits)}
	want := make([]keycrypt.Key, params.Digits)
	kek := path[params.Digits].Key
	for l := params.Digits - 1; l >= 0; l-- {
		want[l] = keycrypt.DeriveKey([]byte{byte(l)}, "new")
		e, err := keycrypt.WrapSeeded(kek, u.Prefix(l+1), want[l], u.Prefix(l), 2, []byte("n"), 1)
		if err != nil {
			t.Fatal(err)
		}
		msg.Encryptions[l], kek = e, want[l]
	}
	kOnly := &Message{Encryptions: msg.Encryptions[:params.Digits-1]}

	raw := path[params.Digits].Key.Bytes()
	aead := testing.AllocsPerRun(100, func() {
		block, err := aes.NewCipher(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cipher.NewGCM(block); err != nil {
			t.Fatal(err)
		}
	})
	rings := make([]*Keyring, 101) // AllocsPerRun's warm-up plus 100 runs
	for i := range rings {
		var err error
		if rings[i], err = NewKeyring(params, u, path); err != nil {
			t.Fatal(err)
		}
	}
	unw := keycrypt.NewUnwrapper()
	apply := func(m *Message, wantN int) func() {
		i := 0
		return func() {
			if n, err := rings[i].ApplyWith(unw, m); n != wantN || err != nil {
				t.Fatalf("ring %d: ApplyWith = %d, %v; want %d keys", i, n, err, wantN)
			}
			i++
		}
	}
	if got := testing.AllocsPerRun(len(rings)-1, apply(msg, params.Digits)); got != aead {
		t.Errorf("a keyring's first apply allocates %.0f times, want %.0f (one AEAD, for the individual key)", got, aead)
	}
	if got := testing.AllocsPerRun(len(rings)-1, apply(kOnly, params.Digits-1)); got != 0 {
		t.Errorf("an apply under cached KEKs allocates %.0f times, want 0", got)
	}
	for l, k := range want {
		if got, _ := rings[len(rings)-1].Key(u.Prefix(l)); !got.Equal(k) {
			t.Errorf("level %d: the keyring holds the wrong key", l)
		}
	}
}

// TestKeyringRejectsWrapUnderShallowerKey: a member that holds a key on
// the victim's path seals a key for one of the victim's levels under
// it. An honest wrap always seals a key under a deeper one, so every
// forgery that wraps a key under a shallower or equal KEK is refused,
// one under a KEK the victim does not hold is ignored, and the victim's
// keys are unchanged either way.
func TestKeyringRejectsWrapUnderShallowerKey(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 3}
	tr := newTree(t, params)
	members := ids(t, params, 0, 1, 9) // victim [0,0,0], its sibling [0,0,1], [1,0,0]
	victim, sibling := members[0], members[1]
	if _, err := tr.Batch(members, nil); err != nil {
		t.Fatal(err)
	}
	kr, err := tr.JoinKeyring(victim)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := tr.JoinKeyring(sibling)
	if err != nil {
		t.Fatal(err)
	}
	before, err := tr.PathKeys(victim)
	if err != nil {
		t.Fatal(err)
	}
	forged := keycrypt.DeriveKey([]byte("attacker"), "forged")
	for _, c := range []struct {
		name       string
		kek, keyID ident.Prefix
	}{
		{"shallower KEK", victim.Prefix(0), victim.Prefix(1)},
		{"root self-wrap", victim.Prefix(0), victim.Prefix(0)},
		{"level-1 self-wrap", victim.Prefix(1), victim.Prefix(1)},
		{"shared parent over the individual key", victim.Prefix(2), victim.AsPrefix()},
		{"sibling's individual key", sibling.AsPrefix(), victim.Prefix(2)},
	} {
		kek, ok := attacker.Key(c.kek)
		if !ok {
			t.Fatalf("%s: the attacker does not hold %v", c.name, c.kek)
		}
		e, err := keycrypt.WrapSeeded(kek, c.kek, forged, c.keyID, 99, []byte("n"), 1)
		if err != nil {
			t.Fatal(err)
		}
		n, err := kr.Apply(&Message{Interval: tr.Interval(), Encryptions: []keycrypt.Encryption{e}})
		if n != 0 || (err == nil) == kr.Needs(e) {
			t.Errorf("%s: installed=%d err=%v, want nothing installed and an error iff the victim holds the KEK", c.name, n, err)
		}
		for _, pk := range before {
			if got, _ := kr.Key(pk.ID); !got.Equal(pk.Key) {
				t.Fatalf("%s: the victim's key at %v changed", c.name, pk.ID)
			}
		}
	}
}

// TestStructureMatchesIDTreeProperty: after random batches, the key tree
// structure is exactly the ID tree of the member set.
func TestStructureMatchesIDTreeProperty(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 3}
	tr := newTree(t, params)
	rng := rand.New(rand.NewSource(77))
	live := make(map[int]bool)
	for round := 0; round < 30; round++ {
		var js, lsv []ident.ID
		leftNow := make(map[int]bool)
		for v := range live {
			if rng.Float64() < 0.3 {
				lsv = append(lsv, ids(t, params, v)...)
				delete(live, v)
				leftNow[v] = true
			}
		}
		nJoin := rng.Intn(6)
		for len(js) < nJoin {
			v := rng.Intn(params.Capacity())
			if live[v] || leftNow[v] {
				continue
			}
			live[v] = true
			js = append(js, ids(t, params, v)...)
		}
		msg, err := tr.Batch(js, lsv)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := tr.CheckStructure(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tr.Size() != len(live) {
			t.Fatalf("round %d: size %d, want %d", round, tr.Size(), len(live))
		}
		if len(js)+len(lsv) == 0 && msg.Cost() != 0 {
			t.Fatalf("round %d: empty batch produced %d encryptions", round, msg.Cost())
		}
		// Every encryption's IDs name nodes that exist now.
		for _, e := range msg.Encryptions {
			if !tr.Structure().HasNode(e.KeyID) {
				t.Fatalf("round %d: encryption names dead node %v", round, e.KeyID)
			}
		}
	}
}

// TestPathWrapsMatchLemma3: on random trees and batches — build-up,
// churn, IDs that leave and come back (also within one batch), k-nodes
// pruned and created again — the index of every ranked member names
// exactly the message's encryptions the member needs by Lemma 3,
// deepest first, and a free rank's names none.
func TestPathWrapsMatchLemma3(t *testing.T) {
	for _, params := range []ident.Params{{Digits: 3, Base: 6}, {Digits: 4, Base: 4}} {
		tr := newTree(t, params)
		rng := rand.New(rand.NewSource(int64(params.Base)))
		live := make(map[int]bool)
		pruned := make(map[ident.Prefix]bool) // k-nodes pruned so far
		reborn := 0                           // k-nodes created again after a prune
		for round := 0; round < 40; round++ {
			var js, ls []ident.ID
			leaveP := 0.1
			if round%8 == 7 {
				leaveP = 0.8 // empties whole subtrees
			}
			leftNow := make(map[int]bool)
			for v := 0; v < params.Capacity(); v++ {
				if live[v] && rng.Float64() < leaveP {
					ls = append(ls, ids(t, params, v)...)
					leftNow[v] = true
					if rng.Intn(8) == 0 { // rejoins in the same batch
						js = append(js, ids(t, params, v)...)
					} else {
						delete(live, v)
					}
				}
			}
			nJoin := rng.Intn(12)
			if round == 0 {
				nJoin = params.Capacity() / 2
			}
			for n := 0; n < nJoin; n++ {
				if v := rng.Intn(params.Capacity()); !live[v] && !leftNow[v] {
					live[v] = true
					js = append(js, ids(t, params, v)...)
				}
			}
			before := knodes(tr)
			msg, err := tr.Batch(js, ls)
			if err != nil {
				t.Fatalf("%v round %d: %v", params, round, err)
			}
			for _, p := range before {
				if !tr.Structure().HasNode(p) {
					pruned[p] = true
				}
			}
			for _, p := range knodes(tr) {
				if !slices.Contains(before, p) && pruned[p] {
					reborn++
				}
			}
			for r := ident.Rank(0); int(r) <= tr.Ranks().Width(); r++ {
				got := tr.PathWraps(r, nil)
				id, ok := tr.Ranks().IDOf(r)
				var want []int32
				for i, e := range msg.Encryptions {
					if ok && e.NeededBy(id) {
						want = append(want, int32(i))
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%v round %d rank %d (%v, held %v): index %v, want %v", params, round, r, id, ok, got, want)
				}
				for k := 1; k < len(got); k++ {
					if msg.Encryptions[got[k]].ID.Len() >= msg.Encryptions[got[k-1]].ID.Len() {
						t.Fatalf("%v round %d rank %d: index %v is not deepest first", params, round, r, got)
					}
				}
			}
		}
		if reborn == 0 {
			t.Errorf("%v: no k-node was pruned and created again", params)
		}
	}
}

// TestKnodeLifetimes: a k-node lives as long as its ID subtree is
// non-empty at batch boundaries. A subtree that empties and refills
// within one batch — its only member leaves as a joiner enters it, or
// leaves and rejoins — keeps its k-node, so the key's version goes on
// from where it was; a subtree emptied in one batch and entered in a
// later one gets a fresh k-node at version 1, whichever slot it lands in.
func TestKnodeLifetimes(t *testing.T) {
	u := func(n int) []ident.ID { return ids(t, tp, n) }
	k1 := u(3)[0].Prefix(1) // [1], whose only member is [1,0]
	type batch struct{ joins, leaves []ident.ID }
	build := batch{joins: ids(t, tp, 0, 3)}
	for _, c := range []struct {
		name    string
		batches []batch
		want    uint64       // [1]'s version after the last batch
		takenBy ident.Prefix // a node that takes [1]'s slot meanwhile
	}{
		{"replaced in one batch", []batch{build, {u(4), u(3)}}, 2, ident.EmptyPrefix},
		{"rejoins in one batch", []batch{build, {u(3), u(3)}, {u(4), nil}}, 3, ident.EmptyPrefix},
		{"created again later", []batch{build, {nil, u(3)}, {u(4), nil}}, 1, ident.EmptyPrefix},
		{"created again after its slot was taken", []batch{build, {nil, u(3)}, {u(6), nil}, {u(4), nil}}, 1, u(6)[0].Prefix(1)},
	} {
		tr := newTree(t, tp)
		var msg *Message
		var slot int
		for i, b := range c.batches {
			var err error
			if msg, err = tr.Batch(b.joins, b.leaves); err != nil {
				t.Fatalf("%s: batch %d: %v", c.name, i, err)
			}
			if i == 0 {
				slot, _ = tr.Structure().Slot(k1)
			}
			if err := tr.CheckStructure(); err != nil {
				t.Fatalf("%s: batch %d: %v", c.name, i, err)
			}
		}
		key, version, ok := tr.KeyOf(k1)
		if !ok || version != c.want {
			t.Errorf("%s: k-node %v at version %d (%v), want %d", c.name, k1, version, ok, c.want)
		}
		if want := keycrypt.DeriveKey(tr.seed, fmt.Sprintf("k:%s/v%d", k1.Key(), c.want+tr.Interval()<<32)); !key.Equal(want) {
			t.Errorf("%s: k-node %v does not hold the key of version %d", c.name, k1, c.want)
		}
		for _, e := range msg.Encryptions {
			if e.KeyID == k1 && e.KeyVersion != c.want {
				t.Errorf("%s: encryption %v wraps %v at version %d, want %d", c.name, e.ID, k1, e.KeyVersion, c.want)
			}
		}
		if c.takenBy.Len() > 0 {
			if s, _ := tr.Structure().Slot(c.takenBy); s != slot {
				t.Errorf("%s: %v holds slot %d, not [1]'s old slot %d", c.name, c.takenBy, s, slot)
			}
		}
	}
}

// knodes lists the prefixes of tr's k-nodes: the ID tree's internal
// nodes.
func knodes(tr *Tree) []ident.Prefix {
	var out []ident.Prefix
	tr.Structure().Walk(func(p ident.Prefix, _ int) bool {
		if p.Len() < tr.Params().Digits {
			out = append(out, p)
		}
		return true
	})
	return out
}

// TestUnwrapRefusesOffPathAndOutOfOrder: the check-and-unwrap loop
// every apply runs stops at an encryption under a key off the owner's
// path, and at one under a deeper key than the encryption before it;
// the index's own order installs the member's whole slice.
func TestUnwrapRefusesOffPathAndOutOfOrder(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 3}
	tr := newTree(t, params)
	members := ids(t, params, 0, 1, 9, 18) // [0,0,0] [0,0,1] [1,0,0] [2,0,0]
	if _, err := tr.Batch(members, nil); err != nil {
		t.Fatal(err)
	}
	ks := NewKeyrings(tr)
	for r := range members {
		ks.Join(ident.Rank(r))
	}
	// [0,0,1] leaves: [0,0], [0] and the root are rekeyed.
	msg, err := tr.Batch(nil, members[1:2])
	if err != nil {
		t.Fatal(err)
	}
	path := tr.PathWraps(0, nil)
	if len(path) != 3 {
		t.Fatalf("member %v needs %d encryptions, want 3", members[0], len(path))
	}
	off := slices.IndexFunc(msg.Encryptions, func(e keycrypt.Encryption) bool { return !e.NeededBy(members[0]) })
	for _, c := range []struct {
		idx   []int32
		wantN int
		want  string
	}{
		{[]int32{int32(off)}, 0, "off its path"},
		{[]int32{path[0], path[1], path[0]}, 2, "after a deeper one"},
	} {
		kr := ks.Keyring(0)
		before := slices.Clone(kr.levels)
		if n, err := kr.unwrap(nil, msg.Encryptions, c.idx); n != c.wantN || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("indices %v: unwrap = %d, %v; want %d keys and an error saying %q", c.idx, n, err, c.wantN, c.want)
		}
		copy(kr.levels, before)
	}
	if n, err := ks.Apply(nil, msg, 0); n != 3 || err != nil {
		t.Fatalf("Apply = %d, %v; want 3 keys", n, err)
	}
	want, _ := tr.GroupKey()
	if got, _ := ks.Keyring(0).GroupKey(); !got.Equal(want) {
		t.Error("the member does not hold the new group key")
	}
}

// TestDerivedKeysKnownAnswers pins derived key material for a fixed
// seed: an individual key at its first and second epoch, and k-node keys
// at the root and along two paths, digits >= 128 included. A change to
// one byte of a derivation label ("u:"/"k:", the digit bytes, "/v" and
// the version) changes these.
func TestDerivedKeysKnownAnswers(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 256}
	tr, err := New(params, []byte("derive-kat"), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	u := ident.MustNew(params, []ident.Digit{0, 200, 7})
	v := ident.MustNew(params, []ident.Digit{0, 200, 255})
	w := ident.MustNew(params, []ident.Digit{131, 0, 1})
	for _, b := range [][2][]ident.ID{{{u, v, w}, nil}, {nil, {w}}, {{w}, nil}} {
		if _, err := tr.Batch(b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	hexOf := func(k keycrypt.Key) string { return hex.EncodeToString(k.Bytes()) }
	for id, want := range map[ident.ID]string{
		u: "18a71e17c7abb0af8061f919ed21cbe108ee2e6d4fbfe8b5f61568c5f5a63ed5",
		w: "6837aa1a43ddcc8a7468c61fd98c023d69e296efa74d2d34bb2ebfc19742131b", // rejoined: epoch 2
	} {
		if k, _ := tr.IndividualKey(id); hexOf(k) != want {
			t.Errorf("individual key of %v = %s, want %s", id, hexOf(k), want)
		}
	}
	for _, c := range []struct {
		p       ident.Prefix
		version uint64
		want    string
	}{
		{ident.EmptyPrefix, 3, "f15f2d81c4cdc68ed909206abbb1f599363d15ef1b151bd1f135a9b25541ffb5"},
		{u.Prefix(1), 1, "51606967a0f0419ac98ffc4f30c5f3c717b33b84c0403f6152f63aa6c5d89709"},
		{u.Prefix(2), 1, "b88c58b27ac52e0be6e536454d765eea60b48dd36797d06e4796f5b94f4381b4"},
		{w.Prefix(2), 1, "1c05627b49a413d8b061ad8508ef66637c2c219798b8d8713567bca03a5a988b"},
	} {
		if k, version, _ := tr.KeyOf(c.p); version != c.version || hexOf(k) != c.want {
			t.Errorf("k-node %v = v%d %s, want v%d %s", c.p, version, hexOf(k), c.version, c.want)
		}
	}
}
