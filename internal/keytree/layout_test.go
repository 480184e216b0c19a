package keytree_test

import (
	"math/rand"
	"testing"
	"time"

	"tmesh/internal/cluster"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

// checkLayout fails unless msg keeps keytree.Message's layout contract:
// blocks of strictly decreasing ID length, each strictly increasing by
// Key.
func checkLayout(t *testing.T, what string, msg *keytree.Message) {
	t.Helper()
	for i := 1; i < len(msg.Encryptions); i++ {
		a, b := msg.Encryptions[i-1].ID.Key(), msg.Encryptions[i].ID.Key()
		if len(a) < len(b) || len(a) == len(b) && a >= b {
			t.Fatalf("%s: encryption %d (%v) follows %v out of layout", what, i, msg.Encryptions[i].ID, msg.Encryptions[i-1].ID)
		}
	}
}

// TestMessageLayout: every message the key tree emits keeps the layout
// the split reads (split.AppendShare) — on churned trees through
// Pending, where a join and a leave of one ID in one interval cancel
// and a subtree may empty and refill in one batch, and on the Appendix
// B manager's leaders-only tree.
func TestMessageLayout(t *testing.T) {
	for _, params := range []ident.Params{{Digits: 2, Base: 3}, {Digits: 3, Base: 4}, {Digits: 4, Base: 6}, {Digits: 3, Base: 64}} {
		rng := rand.New(rand.NewSource(int64(params.Base)))
		tr, err := keytree.New(params, []byte("layout"), keytree.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		members := map[ident.ID]ident.ID{}
		var p keytree.Pending
		for interval := 0; interval < 40; interval++ {
			for i := rng.Intn(12); i > 0; i-- {
				id, err := ident.FromInt(params, rng.Intn(min(params.Capacity(), 2000)))
				if err != nil {
					t.Fatal(err)
				}
				if _, in := members[id]; in {
					p.Leave(id)
					delete(members, id)
					continue
				}
				p.Join(id)
				members[id] = id
				if rng.Intn(6) == 0 { // the same interval's leave cancels it
					p.Leave(id)
					delete(members, id)
				}
			}
			msg, _, _, err := tr.Flush(&p, 4)
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, "churned tree", msg)
		}
	}

	// Subtree [1] of D=2 B=3 empties and refills in one batch: its only
	// member [1,0] leaves as [1,1] joins, so [1] keeps its k-node.
	tp := ident.Params{Digits: 2, Base: 3}
	id := func(n int) ident.ID { return ident.MustNew(tp, []ident.Digit{n / 3, n % 3}) }
	tr, err := keytree.New(tp, []byte("refill"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Batch([]ident.ID{id(0), id(3), id(6), id(7)}, nil); err != nil {
		t.Fatal(err)
	}
	msg, err := tr.Batch([]ident.ID{id(4), id(8)}, []ident.ID{id(3), id(0)})
	if err != nil {
		t.Fatal(err)
	}
	if msg.Cost() == 0 {
		t.Fatal("the refill batch emitted nothing")
	}
	checkLayout(t, "refilled subtree", msg)

	cp := ident.Params{Digits: 3, Base: 4}
	m, err := cluster.New(cp, []byte("layout"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var live []ident.ID
	for interval := 0; interval < 20; interval++ {
		for i := rng.Intn(8); i > 0; i-- {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if err := m.Leave(live[k]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
				continue
			}
			uid, err := ident.FreeID(cp, rng, m.Has)
			if err != nil {
				t.Fatal(err)
			}
			rec := overlay.Record{Host: vnet.HostID(len(live) + 1), ID: uid, JoinTime: time.Duration(interval*100 + i)}
			if err := m.Join(rec); err != nil {
				t.Fatal(err)
			}
			live = append(live, uid)
		}
		res, err := m.Process()
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, "leaders-only tree", res.Message)
	}
}
