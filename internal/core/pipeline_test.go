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
	tree, err := keytree.New(params, []byte("apply-err"), keytree.Opts{RealCrypto: true})
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

// TestIndexedApplierMatchesFullApply pins the key plane's shared
// applier to its reference: on random trees and random churn, handing
// every survivor its indexed path slice must install exactly the keys a
// full per-member Keyring.Apply of the whole message installs — inline
// and eight wide (run under -race), and also when duplicate encryption
// IDs force the applier's own full-message fallback.
func TestIndexedApplierMatchesFullApply(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 6}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 24; trial++ {
		tree, err := keytree.New(params, []byte{byte(trial)}, keytree.Opts{RealCrypto: true})
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
		// Three identically keyed stores: the reference and one per width.
		stores := []*memberstate.Store{memberstate.NewStore(), memberstate.NewStore(), memberstate.NewStore()}
		for _, id := range members {
			path, err := tree.PathKeys(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range stores {
				kr, err := keytree.NewKeyring(params, id, path)
				if err != nil {
					t.Fatal(err)
				}
				st.PutKeyring(id, kr)
			}
		}
		leaveAt := rng.Intn(len(members)/3 + 1)
		leavers, survivors := members[:leaveAt], members[leaveAt:]
		msg, err := tree.Batch(joiners, leavers)
		if err != nil {
			t.Fatal(err)
		}
		if trial%3 == 0 && msg.Cost() > 0 { // duplicate enc IDs: the full fallback
			for i := 0; i < 1+rng.Intn(3); i++ {
				msg.Encryptions = append(msg.Encryptions, msg.Encryptions[rng.Intn(msg.Cost())])
			}
		}

		var want int64
		for _, id := range survivors {
			n, err := stores[0].Keyring(id).Apply(msg)
			if err != nil {
				t.Fatalf("trial %d: reference apply for %v: %v", trial, id, err)
			}
			want += int64(n)
		}
		for w, limit := range []int{1, 8} {
			st := stores[w+1]
			var got int64
			atProcs(8, func() { got, err = newIndexedApplier(params, st, limit, "").Apply(msg, survivors) })
			if err != nil {
				t.Fatalf("trial %d limit %d: %v", trial, limit, err)
			}
			if got != want {
				t.Errorf("trial %d limit %d: installed %d keys, reference %d", trial, limit, got, want)
			}
			for _, id := range survivors {
				for l := 0; l <= params.Digits; l++ {
					a, _ := stores[0].Keyring(id).Key(id.Prefix(l))
					b, _ := st.Keyring(id).Key(id.Prefix(l))
					if !a.Equal(b) {
						t.Fatalf("trial %d limit %d: member %v level %d key differs from the reference", trial, limit, id, l)
					}
				}
			}
		}
	}
}

// TestIndexedApplierErrorIsDeterministic: every member is attempted and
// the error names the earliest failing member of the list, at any
// width.
func TestIndexedApplierErrorIsDeterministic(t *testing.T) {
	params := ident.Params{Digits: 2, Base: 8}
	tree, err := keytree.New(params, []byte("idx-err"), keytree.Opts{RealCrypto: true})
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
	msg, err := tree.Batch(nil, ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	survivors := ids[1:]
	for _, limit := range []int{1, 8} {
		store := memberstate.NewStore()
		for i, id := range survivors {
			if i == 7 || i == 30 {
				continue // two members without a keyring
			}
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
		atProcs(8, func() { _, err = newIndexedApplier(params, store, limit, "").Apply(msg, survivors) })
		if err == nil || !strings.HasPrefix(err.Error(), "member "+survivors[7].String()+":") {
			t.Errorf("limit %d: error = %v, want the earliest keyring-less member %v", limit, err, survivors[7])
		}
	}
}
