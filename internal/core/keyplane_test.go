package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
)

// TestKeyPlaneReleasesDepartedKeyrings runs a boundary with more leaves
// than joins, one of the leavers rejoining before it: every leaver's
// keyring is gone from the plane as soon as it leaves, and the
// collector reclaims it before the boundary. After the boundary the
// leavers' ranks serve the joiners, and every member, the rejoiner
// included, holds exactly the tree's keys along its path.
func TestKeyPlaneReleasesDepartedKeyrings(t *testing.T) {
	params := ident.Params{Digits: 2, Base: 8}
	w, err := NewKeyPlane(params, []byte("release"), keytree.Opts{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	id := func(v int) ident.ID {
		id, err := ident.FromInt(params, v)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	for v := 0; v < 12; v++ {
		w.Join(id(v))
	}
	if _, _, _, _, err := w.Rekey(); err != nil {
		t.Fatal(err)
	}

	var released atomic.Int32
	leavers := []int{1, 2, 3, 4, 5}
	freed := map[ident.Rank]bool{}
	for _, v := range leavers {
		r, _ := w.Tree().Ranks().RankOf(id(v))
		freed[r] = true
		runtime.SetFinalizer(w.Keyring(id(v)), func(*keytree.Keyring) { released.Add(1) })
		w.Leave(id(v))
		if w.Keyring(id(v)) != nil {
			t.Errorf("member %d keeps its keyring after leaving", v)
		}
	}
	for i := 0; i < 100 && int(released.Load()) < len(leavers); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := int(released.Load()); got != len(leavers) {
		t.Errorf("%d of %d departed keyrings reclaimed before the boundary", got, len(leavers))
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
