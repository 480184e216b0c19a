package core

import (
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"reflect"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
)

// planeID is the ID FromInt gives v in params.
func planeID(t *testing.T, params ident.Params, v int) ident.ID {
	t.Helper()
	id, err := ident.FromInt(params, v)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// wiped is id's keyring with every key and version zero: what an empty
// slot of the slab reads as.
func wiped(t *testing.T, params ident.Params, id ident.ID) *keytree.Keyring {
	t.Helper()
	path := make([]keytree.PathKey, params.Digits+1)
	for l := range path {
		path[l].ID = id.Prefix(l)
	}
	kr, err := keytree.NewKeyring(params, id, path)
	if err != nil {
		t.Fatal(err)
	}
	return kr
}

// TestKeyPlaneReleasesDepartedKeyrings runs a boundary with more leaves
// than joins, one of the leavers rejoining before it: every leaver's
// keyring is wiped from its slot as soon as it leaves. After the
// boundary the leavers' ranks serve the joiners, and every member, the
// rejoiner included, holds exactly the tree's keys along its path.
func TestKeyPlaneReleasesDepartedKeyrings(t *testing.T) {
	params := ident.Params{Digits: 2, Base: 8}
	w, err := NewKeyPlane(params, []byte("release"), keytree.Opts{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	id := func(v int) ident.ID { return planeID(t, params, v) }
	for v := 0; v < 12; v++ {
		w.Join(id(v))
	}
	if _, _, _, _, err := w.Rekey(); err != nil {
		t.Fatal(err)
	}

	leavers := []int{1, 2, 3, 4, 5}
	freed := map[ident.Rank]bool{}
	for _, v := range leavers {
		r, _ := w.Tree().Ranks().RankOf(id(v))
		freed[r] = true
		w.Leave(id(v))
		if w.Keyring(id(v)) != nil {
			t.Errorf("member %d keeps its keyring after leaving", v)
		}
		if !reflect.DeepEqual(w.rings.Keyring(r), wiped(t, params, id(v))) {
			t.Errorf("member %d's slot is not wiped when it leaves", v)
		}
	}

	w.Join(id(3)) // leaves and rejoins within one interval
	w.Join(id(40))
	joins, leaves, _, _, err := w.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != len(leavers) || len(joins) != 2 {
		t.Fatalf("boundary applied %d leaves and %d joins, want %d and 2", len(leaves), len(joins), len(leavers))
	}
	for _, v := range []int{1, 2, 4, 5} {
		if w.Keyring(id(v)) != nil {
			t.Errorf("departed member %d has a keyring after the boundary", v)
		}
	}
	for _, j := range joins {
		if r, _ := w.Tree().Ranks().RankOf(j); !freed[r] {
			t.Errorf("joiner %v took rank %d, not one a leaver freed", j, r)
		}
	}
	members := w.Tree().Structure().Members(ident.EmptyPrefix)
	if len(members) != 9 {
		t.Fatalf("%d members after the boundary, want 9", len(members))
	}
	for _, m := range members {
		kr := w.Keyring(m)
		if kr == nil || !kr.ID().Equal(m) {
			t.Fatalf("member %v: keyring %v", m, kr)
		}
		path, err := w.Tree().PathKeys(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, pk := range path {
			if k, _ := kr.Key(pk.ID); !k.Equal(pk.Key) {
				t.Errorf("member %v: keyring disagrees with the tree at %v", m, pk.ID)
			}
		}
	}
}

// TestKeyPlaneSecrecyAcrossSlotReuse: the slab hands a leaver's rank to
// a later joiner, so what a slot held must not outlive its member. Over
// eight intervals of a 500-member plane, with one ID leaving and
// rejoining within each interval and fresh joiners taking freed ranks:
// a leaver's slot reads all zero from its Leave to the boundary; the
// keys it held just before leaving open no encryption of the next
// message and are not the new group key; and right after the boundary
// every joiner's slot holds exactly its path keys in the tree, version
// for version.
func TestKeyPlaneSecrecyAcrossSlotReuse(t *testing.T) {
	const n, churn = 500, 12
	params := ident.Base32For(n + 8*churn)
	w, err := NewKeyPlane(params, []byte("secrecy"), keytree.Opts{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	active := make([]ident.ID, n)
	for v := range active {
		active[v] = planeID(t, params, v)
		w.Join(active[v])
	}
	if _, _, _, _, err := w.Rekey(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	fresh, reused := n, 0
	for iv := 0; iv < 8; iv++ {
		var leavers []ident.ID
		var held [][]keycrypt.Key // each leaver's keys just before it left
		freed := map[ident.Rank]bool{}
		for k := 0; k < churn; k++ {
			i := rng.Intn(len(active))
			m := active[i]
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			kr := w.Keyring(m)
			keys := make([]keycrypt.Key, params.Digits+1)
			for l := range keys {
				keys[l], _ = kr.Key(m.Prefix(l))
			}
			r, _ := w.Tree().Ranks().RankOf(m)
			w.Leave(m)
			leavers, held, freed[r] = append(leavers, m), append(held, keys), true
		}
		w.Join(leavers[0]) // leaves and rejoins within the interval
		for k := 1; k < churn; k++ {
			w.Join(planeID(t, params, fresh))
			fresh++
		}
		for _, m := range leavers {
			r, _ := w.Tree().Ranks().RankOf(m)
			if !reflect.DeepEqual(w.rings.Keyring(r), wiped(t, params, m)) {
				t.Fatalf("interval %d: leaver %v's slot is not all zero before the boundary", iv, m)
			}
		}

		msg, joins, _, _, err := w.rekey()
		if err != nil {
			t.Fatal(err)
		}
		gk, _ := w.Tree().GroupKey()
		for i, keys := range held {
			unw := keycrypt.NewUnwrapper()
			for _, k := range keys {
				if k.Equal(gk) {
					t.Fatalf("interval %d: leaver %v held the new group key", iv, leavers[i])
				}
				for _, e := range msg.Encryptions {
					if _, err := unw.Unwrap(k, e); err == nil {
						t.Fatalf("interval %d: leaver %v's old keys open the encryption under %v", iv, leavers[i], e.ID)
					}
				}
			}
		}
		for _, j := range joins {
			path, err := w.Tree().PathKeys(j)
			if err != nil {
				t.Fatal(err)
			}
			want, err := keytree.NewKeyring(params, j, path)
			if err != nil {
				t.Fatal(err)
			}
			if got := w.Keyring(j); !reflect.DeepEqual(got, want) {
				t.Fatalf("interval %d: joiner %v's slot does not hold its path keys", iv, j)
			}
			if r, _ := w.Tree().Ranks().RankOf(j); freed[r] {
				reused++
			}
		}
		active = append(active, joins...)
	}
	if reused == 0 {
		t.Error("no joiner took a rank a leaver freed")
	}
}

// TestKeyPlaneApplyAllocatesOnlyAEADs is the allocation gate of the key
// plane's apply: one steady-state apply of a fixed message over a
// 2 000-member plane allocates only the AES-GCM state each member's
// individual key needs for its level-D encryption, one per such
// encryption, plus an allowance per worker for the message: its
// Unwrapper, the AES-GCM state it caches for each k-node KEK, and the
// fan-out's own. An allocation per member fails here.
func TestKeyPlaneApplyAllocatesOnlyAEADs(t *testing.T) {
	const n, churn = 2000, 20
	params := ident.Base32For(n + churn)
	w, err := NewKeyPlane(params, keytree.SeedOf(1), keytree.Opts{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		w.Join(planeID(t, params, v))
	}
	if _, _, _, _, err := w.Rekey(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < churn; v++ {
		w.Leave(planeID(t, params, v*97))
		w.Join(planeID(t, params, n+v))
	}
	msg, _, _, _, err := w.rekey()
	if err != nil {
		t.Fatal(err)
	}
	levelD, kEncs := 0, 0
	for _, e := range msg.Encryptions {
		if e.ID.Len() == params.Digits {
			levelD++
		} else {
			kEncs++
		}
	}
	raw := keycrypt.DeriveKey([]byte("aead"), "kek").Bytes()
	aead := testing.AllocsPerRun(100, func() {
		block, err := aes.NewCipher(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cipher.NewGCM(block); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun runs at GOMAXPROCS 1: the apply has one worker. Its
	// allowance is one cached AEAD per k-node KEK, plus 32 for the
	// Unwrapper, its scratch, its cache's growth and the fan-out's
	// closures (21 at the time of writing).
	perWorker := float64(kEncs)*aead + 32
	// Every member, the joiners too, now holds what msg installs, so
	// applying it again unwraps the same keys at every slot.
	survivors := w.Tree().Size()
	got := testing.AllocsPerRun(5, func() {
		if _, err := w.apply(msg, survivors); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(levelD)*aead + perWorker; got > budget {
		t.Errorf("an apply to %d survivors allocates %.0f times, over %.0f: %d level-D encryptions × %.0f for their AEADs, plus %.0f for the worker",
			survivors, got, budget, levelD, aead, perWorker)
	}
	t.Logf("%.0f allocations: %d level-D and %d k-node encryptions, %.0f per AEAD", got, levelD, kEncs, aead)
}

// TestKeyringDigestFoldsGroupKeys: the digest commits to group keys —
// the server's and each listed member's, or its absence — so changing
// a member's group key, dropping a member's keyring or dropping the
// server's key each changes it.
func TestKeyringDigestFoldsGroupKeys(t *testing.T) {
	params := ident.Params{Digits: 2, Base: 4}
	members := []ident.ID{planeID(t, params, 1), planeID(t, params, 6), planeID(t, params, 11)}
	gk := keycrypt.DeriveKey([]byte("digest"), "group")
	digest := func(haveServer bool, edit func(map[ident.ID]keycrypt.Key)) uint64 {
		keys := map[ident.ID]keycrypt.Key{}
		for _, m := range members {
			keys[m] = gk
		}
		edit(keys)
		return KeyringDigest(gk, haveServer, members, func(id ident.ID) (keycrypt.Key, bool) {
			k, ok := keys[id]
			return k, ok
		})
	}
	same := digest(true, func(map[ident.ID]keycrypt.Key) {})
	for _, c := range []struct {
		name string
		got  uint64
	}{
		{"a member's group key changed", digest(true, func(k map[ident.ID]keycrypt.Key) {
			k[members[1]] = keycrypt.DeriveKey([]byte("digest"), "stale")
		})},
		{"a member's keyring missing", digest(true, func(k map[ident.ID]keycrypt.Key) { delete(k, members[2]) })},
		{"the server key missing", digest(false, func(map[ident.ID]keycrypt.Key) {})},
	} {
		if c.got == same {
			t.Errorf("%s: the digest did not change", c.name)
		}
	}
}
