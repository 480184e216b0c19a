package keytree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"tmesh/internal/ident"
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
		got, twin := newTree(t, params, true), newTree(t, params, true)
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

// TestFlushClearsRejectedBatch: a batch the tree refuses is dropped, not
// retried into the next interval.
func TestFlushClearsRejectedBatch(t *testing.T) {
	tr := newTree(t, tp, false)
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
