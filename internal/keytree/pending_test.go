package keytree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
)

// TestFlushMatchesHandSortedBatch is the differential for Pending and
// Flush: random Join/Leave scripts — same-interval cancels, leave then
// re-join of one ID, repeated leaves — go through Pending+Flush on one
// tree, while a per-ID model restates the cancellation rule, and its
// hand-sorted lists go through Mark+Regenerate on a twin. Messages must
// be byte-identical and the applied lists equal, interval after
// interval.
func TestFlushMatchesHandSortedBatch(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 4}
	all := make([]ident.ID, params.Capacity())
	for i := range all {
		all[i] = ids(t, params, i)[0]
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, twin := newTree(t, params), newTree(t, params)
		var p Pending
		for interval := 0; interval < 12; interval++ {
			joining, left := map[ident.ID]bool{}, map[ident.ID]bool{}
			for op := rng.Intn(40); op > 0; op-- {
				id := all[rng.Intn(len(all))]
				member := twin.Structure().Contains(id)
				switch {
				case joining[id]: // came and went: the pair cancels
					if !p.Leave(id) {
						t.Fatalf("seed %d: leave of pending joiner %v did not cancel", seed, id)
					}
					delete(joining, id)
				case member && (!left[id] || rng.Intn(4) == 0): // the repeat: a leave, then a crash
					if p.Leave(id) {
						t.Fatalf("seed %d: leave of member %v cancelled something", seed, id)
					}
					left[id] = true
				default: // a stranger, or a member that already left: (re-)join
					p.Join(id)
					joining[id] = true
				}
			}
			wantJoins, wantLeaves := keysSorted(joining), keysSorted(left)

			msg, joins, leaves, err := got.Flush(&p, 3)
			if err != nil {
				t.Fatalf("seed %d interval %d: flush: %v", seed, interval, err)
			}
			plan, err := twin.Mark(wantJoins, wantLeaves)
			if err != nil {
				t.Fatalf("seed %d interval %d: mark: %v", seed, interval, err)
			}
			want, err := twin.Regenerate(plan, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(joins, wantJoins) || !slices.Equal(leaves, wantLeaves) {
				t.Fatalf("seed %d interval %d: applied joins %v leaves %v, want %v %v",
					seed, interval, joins, leaves, wantJoins, wantLeaves)
			}
			sameMessage(t, msg, want)
			if len(p.joins)+len(p.leaves) != 0 {
				t.Fatalf("seed %d interval %d: flush left %d joins, %d leaves pending",
					seed, interval, len(p.joins), len(p.leaves))
			}
		}
		if err := got.CheckStructure(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCostfulBatchOwesEveryMember pins the premise two rules rest on:
// a batch with cost > 0 re-keys the root under every level-1 child, so
// every member of the tree after it needs at least one of its
// encryptions (Lemma 3), and every surviving keyring's Apply of it
// installs at least one key. The chaos ladder therefore owes every
// expected member, and the daemon may refuse to install a frame that
// installed no key. Random Flush batches, same-interval leave and
// rejoin of one ID included.
func TestCostfulBatchOwesEveryMember(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 3}
	all := make([]ident.ID, params.Capacity())
	for i := range all {
		all[i] = ids(t, params, i)[0]
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := newTree(t, params)
		rings := map[ident.ID]*Keyring{}
		for batch := 0; batch < 8; batch++ {
			var p Pending
			touched := map[ident.ID]bool{}
			for op := 1 + rng.Intn(6); op > 0; op-- {
				id := all[rng.Intn(len(all))]
				if touched[id] {
					continue
				}
				touched[id] = true
				switch member := tr.Structure().Contains(id); {
				case member && rng.Intn(3) == 0: // leave and rejoin in one interval
					p.Leave(id)
					p.Join(id)
				case member:
					p.Leave(id)
				default:
					p.Join(id)
				}
			}
			msg, joins, leaves, err := tr.Flush(&p, 1)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			for _, id := range leaves {
				delete(rings, id)
			}
			if msg.Cost() == 0 {
				if tr.Size() > 0 {
					t.Fatalf("seed %d batch %d: %d joins and %d leaves cost nothing", seed, batch, len(joins), len(leaves))
				}
				continue
			}
			for id, kr := range rings {
				if n, err := kr.Apply(msg); err != nil || n == 0 {
					t.Fatalf("seed %d batch %d: survivor %v installed %d keys (%v)", seed, batch, id, n, err)
				}
			}
			for _, id := range joins {
				if rings[id], err = tr.JoinKeyring(id); err != nil {
					t.Fatal(err)
				}
			}
			for id := range rings {
				if !slices.ContainsFunc(msg.Encryptions, func(e keycrypt.Encryption) bool { return e.NeededBy(id) }) {
					t.Fatalf("seed %d batch %d: member %v needs none of %d encryptions", seed, batch, id, msg.Cost())
				}
			}
		}
	}
}

// TestFlushClearsRejectedBatch: a batch the tree refuses is dropped, not
// retried into the next interval.
func TestFlushClearsRejectedBatch(t *testing.T) {
	tr := newTree(t, tp)
	var p Pending
	p.Leave(ids(t, tp, 4)[0]) // never joined
	if _, _, _, err := tr.Flush(&p, 0); err == nil {
		t.Fatal("leave of a non-member should be rejected")
	}
	p.Join(ids(t, tp, 4)[0])
	msg, joins, leaves, err := tr.Flush(&p, 0)
	if err != nil || len(joins) != 1 || len(leaves) != 0 || msg.Cost() == 0 {
		t.Fatalf("interval after a rejected batch: msg %+v joins %v leaves %v err %v", msg, joins, leaves, err)
	}
}

func keysSorted(set map[ident.ID]bool) []ident.ID {
	out := make([]ident.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.SortFunc(out, ident.ID.Compare)
	return out
}

func sameMessage(t *testing.T, got, want *Message) {
	t.Helper()
	if got.Interval != want.Interval || len(got.Encryptions) != len(want.Encryptions) {
		t.Fatalf("interval %d with %d encryptions, want interval %d with %d",
			got.Interval, len(got.Encryptions), want.Interval, len(want.Encryptions))
	}
	for i := range want.Encryptions {
		a, b := got.Encryptions[i], want.Encryptions[i]
		if a.ID != b.ID || a.KeyID != b.KeyID || a.KeyVersion != b.KeyVersion || !bytes.Equal(a.Ciphertext, b.Ciphertext) {
			t.Fatalf("interval %d encryption %d: not byte-identical", want.Interval, i)
		}
	}
}
