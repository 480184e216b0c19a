package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/memberstate"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
)

// atProcs runs fn with GOMAXPROCS set to n and restores it (also when
// fn ends in t.Fatal): the pipeline's width is derived from GOMAXPROCS,
// so this is how a test picks one.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func newCryptoGroup(t *testing.T, hosts int, clusterMode bool) *Group {
	t.Helper()
	g, err := NewGroup(Config{
		Net:             testNet(t, hosts),
		ServerHost:      0,
		Assign:          smallAssign(),
		K:               2,
		Seed:            5,
		ClusterRekeying: clusterMode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// workloadRun is what driveWorkload observed.
type workloadRun struct {
	members []ident.ID
	msgs    []*keytree.Message
	reps    []*split.Report
}

// driveAt drives the standard workload against g at GOMAXPROCS procs.
func driveAt(t *testing.T, procs int, g *Group) (r workloadRun) {
	t.Helper()
	atProcs(procs, func() { r.members, r.msgs, r.reps = driveWorkload(t, g) })
	return r
}

// sameMessages fails the test unless both runs produced byte-identical
// rekey messages over the same membership.
func sameMessages(t *testing.T, a, b workloadRun) {
	t.Helper()
	if !reflect.DeepEqual(a.members, b.members) {
		t.Fatal("membership diverged between widths")
	}
	if len(a.msgs) != len(b.msgs) {
		t.Fatalf("interval counts differ: %d vs %d", len(a.msgs), len(b.msgs))
	}
	for i := range a.msgs {
		ma, mb := a.msgs[i], b.msgs[i]
		if ma.Interval != mb.Interval || len(ma.Encryptions) != len(mb.Encryptions) {
			t.Fatalf("interval %d: message shape differs", i)
		}
		for j := range ma.Encryptions {
			ea, eb := ma.Encryptions[j], mb.Encryptions[j]
			if ea.ID != eb.ID || ea.KeyID != eb.KeyID || ea.KeyVersion != eb.KeyVersion ||
				!bytes.Equal(ea.Ciphertext, eb.Ciphertext) {
				t.Fatalf("interval %d encryption %d: not byte-identical", i, j)
			}
		}
	}
}

// sameMemberKeys fails the test unless both groups converged and every
// member holds the same group key in both.
func sameMemberKeys(t *testing.T, a, b *Group, members []ident.ID) {
	t.Helper()
	checkConverged(t, a, members)
	checkConverged(t, b, members)
	wantGK, _ := a.ServerGroupKey()
	gotGK, _ := b.ServerGroupKey()
	if !wantGK.Equal(gotGK) {
		t.Fatal("server group keys differ between widths")
	}
	for _, id := range members {
		ka, okA := a.GroupKeyOf(id)
		kb, okB := b.GroupKeyOf(id)
		if okA != okB || (okA && !ka.Equal(kb)) {
			t.Fatalf("user %v: group keys differ", id)
		}
	}
}

// driveWorkload runs the same deterministic join/churn schedule against
// a group and returns the rekey messages and reports of each interval.
func driveWorkload(t *testing.T, g *Group) (members []ident.ID, msgs []*keytree.Message, reps []*split.Report) {
	t.Helper()
	for h := 1; h <= 25; h++ {
		id, _, err := g.Join(vnet.HostID(h), time.Duration(h)*time.Second)
		if err != nil {
			t.Fatalf("join %d: %v", h, err)
		}
		members = append(members, id)
	}
	flush := func() {
		msg, err := g.ProcessInterval()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := g.DistributeRekey(msg)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, msg)
		reps = append(reps, rep)
	}
	flush()
	for _, id := range members[:6] {
		if err := g.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	members = members[6:]
	for h := 26; h <= 31; h++ {
		id, _, err := g.Join(vnet.HostID(h), time.Duration(h)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, id)
	}
	flush()
	return members, msgs, reps
}

// TestPipelineSeqParEquivalence is the determinism contract of the
// staged pipeline: the same seed and workload must produce
// byte-identical rekey messages, identical split reports, and identical
// final member state inline (GOMAXPROCS 1) and eight wide. Run under
// -race this also exercises the sharded member store and the fan-out
// stages.
func TestPipelineSeqParEquivalence(t *testing.T) {
	for _, clusterMode := range []bool{false, true} {
		name := "tree"
		if clusterMode {
			name = "cluster"
		}
		t.Run(name, func(t *testing.T) {
			seqG := newCryptoGroup(t, 40, clusterMode)
			parG := newCryptoGroup(t, 40, clusterMode)
			seq := driveAt(t, 1, seqG)
			par := driveAt(t, 8, parG)
			sameMessages(t, seq, par)
			for i := range seq.reps {
				a, b := seq.reps[i], par.reps[i]
				if !reflect.DeepEqual(a.ReceivedPerUser, b.ReceivedPerUser) ||
					!reflect.DeepEqual(a.ForwardedPerUser, b.ForwardedPerUser) ||
					!reflect.DeepEqual(a.LinkUnits, b.LinkUnits) ||
					a.ServerUnits != b.ServerUnits {
					t.Fatalf("interval %d: reports differ", i)
				}
				if !reflect.DeepEqual(a.Deliveries, b.Deliveries) {
					t.Fatalf("interval %d: delivery logs differ", i)
				}
			}
			sameMemberKeys(t, seqG, parG, seq.members)
		})
	}
}

// TestIncrementalLeaderKeyrings asserts that cluster mode builds a
// keyring only when a leader enters the leaders-only tree, instead of
// rebuilding every leader every interval: rebuild counts track leader
// churn, not interval count.
func TestIncrementalLeaderKeyrings(t *testing.T) {
	g := newCryptoGroup(t, 40, true)
	var members []ident.ID
	for h := 1; h <= 20; h++ {
		id, _, err := g.Join(vnet.HostID(h), time.Duration(h)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, id)
	}
	msg, err := g.ProcessInterval()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.DistributeRekey(msg); err != nil {
		t.Fatal(err)
	}
	leaders := g.Clusters().Tree().Size()
	after := g.KeyringRebuilds()
	if after != leaders {
		t.Fatalf("initial interval built %d keyrings for %d leaders", after, leaders)
	}

	// Churn-free intervals must not rebuild anything.
	for i := 0; i < 3; i++ {
		if _, err := g.ProcessInterval(); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.KeyringRebuilds(); got != after {
		t.Fatalf("churn-free intervals rebuilt keyrings: %d -> %d", after, got)
	}

	// A leader departure elects a replacement: exactly the new leader
	// (at most one here) may be rebuilt, incumbents are untouched.
	var leader ident.ID
	for _, id := range members {
		if g.Clusters().IsLeader(id) {
			leader = id
			break
		}
	}
	if leader.IsZero() {
		t.Fatal("no leader found")
	}
	if err := g.Leave(leader); err != nil {
		t.Fatal(err)
	}
	msg, err = g.ProcessInterval()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Cost() > 0 {
		if _, err := g.DistributeRekey(msg); err != nil {
			t.Fatal(err)
		}
	}
	grew := g.KeyringRebuilds() - after
	if grew > 1 {
		t.Fatalf("leader handoff rebuilt %d keyrings, want <= 1", grew)
	}
	// Remaining members still converge to the server key.
	live := members[:0]
	for _, id := range members {
		if !id.Equal(leader) {
			live = append(live, id)
		}
	}
	checkConverged(t, g, live)
}

// TestApplyErrorAggregation verifies the apply stage reports every
// failing user, sorted by user ID, rather than an arbitrary map pick.
func TestApplyErrorAggregation(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 16}
	tree, err := keytree.New(params, []byte("apply-err"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	ids := []ident.ID{
		ident.MustNew(params, []ident.Digit{2, 0, 0}),
		ident.MustNew(params, []ident.Digit{0, 1, 0}),
		ident.MustNew(params, []ident.Digit{7, 3, 2}),
	}
	if _, err := tree.Batch(ids, nil); err != nil {
		t.Fatal(err)
	}
	store := memberstate.NewStore()
	for _, id := range ids {
		path, err := tree.PathKeys(id)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := keytree.NewKeyring(params, id, path)
		if err != nil {
			t.Fatal(err)
		}
		store.PutKeyring(id, kr)
	}
	// Churn the tree so real encryptions exist, then corrupt them: every
	// keyring's unwrap fails.
	msg, err := tree.Batch(nil, ids[2:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg.Encryptions {
		if len(msg.Encryptions[i].Ciphertext) > 0 {
			msg.Encryptions[i].Ciphertext[0] ^= 0xff
		}
	}
	var deliveries []split.Delivery
	// Deliver in non-sorted order to prove the report sorts.
	for _, id := range []ident.ID{ids[1], ids[0]} {
		var encs = msg.Encryptions
		deliveries = append(deliveries, split.Delivery{To: id, Level: 1, Encryptions: encs})
	}
	applier := &storeApplier{store: store, limit: 4}
	err = applier.Apply(msg.Interval, deliveries)
	if err == nil {
		t.Fatal("corrupted encryptions should fail to apply")
	}
	var agg *ApplyError
	if !errors.As(err, &agg) {
		t.Fatalf("error type %T, want *ApplyError", err)
	}
	if len(agg.Users) != 2 {
		t.Fatalf("aggregated %d failures, want 2", len(agg.Users))
	}
	if agg.Users[0].Key() >= agg.Users[1].Key() {
		t.Fatalf("failures not sorted by user ID: %v before %v", agg.Users[0], agg.Users[1])
	}
	if agg.Unwrap() == nil {
		t.Fatal("ApplyError must unwrap to its first failure")
	}
}

// TestSharedPoolEquivalence is the tenancy variant of the determinism
// contract: groups that rekey concurrently — the tree and the cluster
// subtests run in parallel, so both draw on the one process-wide set of
// work.Run helpers at the same time — must each produce byte-identical
// rekey messages and identical final member state to a group driven
// alone and inline.
func TestSharedPoolEquivalence(t *testing.T) {
	type reference struct {
		g   *Group
		run workloadRun
	}
	refs := map[bool]reference{}
	for _, clusterMode := range []bool{false, true} {
		g := newCryptoGroup(t, 40, clusterMode)
		refs[clusterMode] = reference{g, driveAt(t, 1, g)}
	}
	// The parallel subtests start once this function returns and finish
	// before its cleanups run, so they all see GOMAXPROCS 8.
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, clusterMode := range []bool{false, true} {
		name := "tree"
		if clusterMode {
			name = "cluster"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := refs[clusterMode]
			for round := 0; round < 3; round++ {
				g := newCryptoGroup(t, 40, clusterMode)
				members, msgs, reps := driveWorkload(t, g)
				sameMessages(t, ref.run, workloadRun{members, msgs, reps})
				sameMemberKeys(t, ref.g, g, members)
			}
		})
	}
}

// indexedPlane is a key plane over tree whose keyed members hold their
// current path keys at their ranks; every other slot is empty.
func indexedPlane(tree *keytree.Tree, limit int, keyed []ident.ID) *KeyPlane {
	w := &KeyPlane{tree: tree, rings: keytree.NewKeyrings(tree), limit: limit}
	for _, id := range keyed {
		r, _ := tree.Ranks().RankOf(id)
		w.rings.Join(r)
	}
	return w
}

// plant makes kr hold k at level l the way a member installs any key:
// unwrapped from a wrap under its own individual key.
func plant(t *testing.T, kr *keytree.Keyring, l int, k keycrypt.Key) {
	t.Helper()
	id := kr.ID()
	ik, _ := kr.Key(id.AsPrefix())
	e, err := keycrypt.WrapSeeded(ik, id.AsPrefix(), k, id.Prefix(l), 1, []byte("plant"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kr.Apply(&keytree.Message{Encryptions: []keycrypt.Encryption{e}}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedApplierMatchesFullApply pins the key plane's shared
// applier to its reference: on random trees and random churn, handing
// every survivor its path slice must install exactly the keys a full
// per-member Keyring.Apply of the whole message installs — inline and
// eight wide (run under -race).
func TestIndexedApplierMatchesFullApply(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 6}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 24; trial++ {
		tree, err := keytree.New(params, []byte{byte(trial)}, keytree.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		var ids []ident.ID
		for _, v := range rng.Perm(params.Capacity())[:20+rng.Intn(120)] {
			id, err := ident.FromInt(params, v)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		joinAt := len(ids) - rng.Intn(len(ids)/4+1)
		members, joiners := ids[:joinAt], ids[joinAt:]
		if _, err := tree.Batch(members, nil); err != nil {
			t.Fatal(err)
		}
		// The reference keyrings and one plane per width, identically
		// keyed. A leaver's slot is empty, as on the key plane.
		leaveAt := rng.Intn(len(members)/3 + 1)
		leavers, survivors := members[:leaveAt], members[leaveAt:]
		ref := make([]*keytree.Keyring, len(survivors))
		for i, id := range survivors {
			path, err := tree.PathKeys(id)
			if err != nil {
				t.Fatal(err)
			}
			if ref[i], err = keytree.NewKeyring(params, id, path); err != nil {
				t.Fatal(err)
			}
		}
		limits := []int{1, 8}
		planes := make([]*KeyPlane, len(limits))
		for k, limit := range limits {
			planes[k] = indexedPlane(tree, limit, survivors)
		}
		msg, err := tree.Batch(joiners, leavers)
		if err != nil {
			t.Fatal(err)
		}

		var want int64
		for _, kr := range ref {
			n, err := kr.Apply(msg)
			if err != nil {
				t.Fatalf("trial %d: reference apply for %v: %v", trial, kr.ID(), err)
			}
			want += int64(n)
		}
		for k, w := range planes {
			var installed int64
			atProcs(8, func() { installed, err = w.apply(msg, len(survivors)) })
			if err != nil {
				t.Fatalf("trial %d limit %d: %v", trial, limits[k], err)
			}
			if installed != want {
				t.Errorf("trial %d limit %d: installed %d keys, reference %d", trial, limits[k], installed, want)
			}
			for i, id := range survivors {
				got := w.Keyring(id)
				for l := 0; l <= params.Digits; l++ {
					a, _ := ref[i].Key(id.Prefix(l))
					b, _ := got.Key(id.Prefix(l))
					if !a.Equal(b) {
						t.Fatalf("trial %d limit %d: member %v level %d key differs from the reference", trial, limits[k], id, l)
					}
				}
			}
		}
	}
}

// TestAppliersFailAWrongKEKAfterACacheHit: an apply worker's Unwrapper
// keeps the cipher state of every KEK it has used, but a member whose
// level-1 key is wrong must still fail its unwrap after a sibling under
// the same level-1 subtree, earlier in the list and on the same worker,
// has cached the right one. Every other member installs exactly what
// the reference Keyring.Apply installs.
func TestAppliersFailAWrongKEKAfterACacheHit(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 4}
	tree, err := keytree.New(params, []byte("wrong-kek"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []ident.ID
	for _, v := range []int{0, 5, 1, 2, 9, 16, 32, 33} { // [0,0,0], [0,1,1], [0,0,1], ...
		id, err := ident.FromInt(params, v)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := tree.Batch(ids, nil); err != nil {
		t.Fatal(err)
	}
	victim := ids[1]
	stale := keycrypt.DeriveKey([]byte("stale"), "level-1")
	newStore := func() *memberstate.Store {
		st := memberstate.NewStore()
		for _, id := range ids {
			path, err := tree.PathKeys(id)
			if err != nil {
				t.Fatal(err)
			}
			if id == victim {
				for i := range path {
					if path[i].ID.Len() == 1 {
						path[i].Key = stale
					}
				}
			}
			kr, err := keytree.NewKeyring(params, id, path)
			if err != nil {
				t.Fatal(err)
			}
			st.PutKeyring(id, kr)
		}
		return st
	}
	ref, stored := newStore(), newStore()
	// ids[5]'s slot stays empty: it leaves.
	survivors := append(append([]ident.ID(nil), ids[:5]...), ids[6:]...)
	indexed := indexedPlane(tree, 1, survivors)
	plant(t, indexed.Keyring(victim), 1, stale)
	// [1,0,0] leaves: the group key is wrapped under [0]'s unchanged key,
	// which ids[0] opens (and caches) just before the victim tries.
	msg, err := tree.Batch(nil, []ident.ID{ids[5]})
	if err != nil {
		t.Fatal(err)
	}
	var deliveries []split.Delivery
	for _, id := range survivors {
		if id != victim {
			if _, err := ref.Keyring(id).Apply(msg); err != nil {
				t.Fatalf("reference apply for %v: %v", id, err)
			}
		}
		deliveries = append(deliveries, split.Delivery{To: id, Encryptions: msg.Encryptions})
	}

	_, err = indexed.apply(msg, len(survivors))
	if !errors.Is(err, keycrypt.ErrDecrypt) || !strings.HasPrefix(err.Error(), "member "+victim.String()+":") {
		t.Errorf("key plane apply: err = %v, want %v failing with ErrDecrypt", err, victim)
	}
	err = (&storeApplier{store: stored, limit: 1}).Apply(msg.Interval, deliveries)
	var agg *ApplyError
	if !errors.As(err, &agg) || len(agg.Users) != 1 || agg.Users[0] != victim || !errors.Is(err, keycrypt.ErrDecrypt) {
		t.Errorf("storeApplier: err = %v, want only %v failing with ErrDecrypt", err, victim)
	}
	for _, keyringOf := range []func(ident.ID) *keytree.Keyring{indexed.Keyring, stored.Keyring} {
		for _, id := range survivors {
			for l := 0; id != victim && l <= params.Digits; l++ {
				a, _ := ref.Keyring(id).Key(id.Prefix(l))
				b, _ := keyringOf(id).Key(id.Prefix(l))
				if !a.Equal(b) {
					t.Fatalf("member %v level %d key differs from the reference", id, l)
				}
			}
		}
	}
}

// TestIndexedApplierErrorIsDeterministic: every keyring is attempted
// and the error names the failing member at the lowest slot, at any
// width; with no keyring failing, a survivor whose keyring is gone
// (fewer keyrings than survivors) is the error.
func TestIndexedApplierErrorIsDeterministic(t *testing.T) {
	params := ident.Params{Digits: 2, Base: 8}
	tree, err := keytree.New(params, []byte("idx-err"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []ident.ID
	for v := 0; v < 40; v++ {
		id, err := ident.FromInt(params, v)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := tree.Batch(ids, nil); err != nil {
		t.Fatal(err)
	}
	// Per width, one plane keys every survivor with its path before the
	// rekey, and two of them with a wrong level-1 key, so the new group
	// key's wrap under it does not open; in another, two survivors have
	// no keyring.
	survivors := ids[1:]
	limits := []int{1, 8}
	var failing, gone []*KeyPlane
	for _, limit := range limits {
		w := indexedPlane(tree, limit, survivors)
		for _, i := range []int{30, 7} {
			plant(t, w.Keyring(survivors[i]), 1, keycrypt.DeriveKey([]byte("stale"), "level-1"))
		}
		failing = append(failing, w)
		w = indexedPlane(tree, limit, survivors)
		for _, i := range []int{30, 7} {
			r, _ := tree.Ranks().RankOf(survivors[i])
			w.rings.Leave(r)
		}
		gone = append(gone, w)
	}
	msg, err := tree.Batch(nil, ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	for k, limit := range limits {
		atProcs(8, func() { _, err = failing[k].apply(msg, len(survivors)) })
		if !errors.Is(err, keycrypt.ErrDecrypt) || !strings.HasPrefix(err.Error(), "member "+survivors[7].String()+":") {
			t.Errorf("limit %d: error = %v, want the lowest failing member %v", limit, err, survivors[7])
		}
		atProcs(8, func() { _, err = gone[k].apply(msg, len(survivors)) })
		if want := "applied to 37 keyrings, the tree has 39 survivors"; err == nil || err.Error() != want {
			t.Errorf("limit %d: error = %v, want %q", limit, err, want)
		}
	}
}
