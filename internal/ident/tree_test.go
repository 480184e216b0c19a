package ident

import (
	"math/rand"
	"testing"
)

// paperTree reproduces the five-user example of Fig. 1: IDs [0,0], [0,1],
// [2,0], [2,1], [2,2] with D=2, B=3.
func paperTree(t *testing.T) (*Tree, Params, []ID) {
	t.Helper()
	p := Params{Digits: 2, Base: 3}
	ids := []ID{
		MustNew(p, []Digit{0, 0}),
		MustNew(p, []Digit{0, 1}),
		MustNew(p, []Digit{2, 0}),
		MustNew(p, []Digit{2, 1}),
		MustNew(p, []Digit{2, 2}),
	}
	tree, err := BuildTree(p, ids)
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	return tree, p, ids
}

func TestTreePaperExample(t *testing.T) {
	tree, p, ids := paperTree(t)
	if tree.Size() != 5 {
		t.Fatalf("Size = %d, want 5", tree.Size())
	}
	// Level-1 nodes [0] and [2] exist; [1] does not.
	p0, _ := PrefixOf(p, []Digit{0})
	p1, _ := PrefixOf(p, []Digit{1})
	p2, _ := PrefixOf(p, []Digit{2})
	if !tree.HasNode(p0) || !tree.HasNode(p2) {
		t.Error("level-1 nodes [0] and [2] should exist")
	}
	if tree.HasNode(p1) {
		t.Error("node [1] should not exist")
	}
	if got := tree.SubtreeSize(p0); got != 2 {
		t.Errorf("SubtreeSize([0]) = %d, want 2", got)
	}
	if got := tree.SubtreeSize(p2); got != 3 {
		t.Errorf("SubtreeSize([2]) = %d, want 3", got)
	}
	if got := tree.ChildDigits(EmptyPrefix); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("root children = %v, want [0 2]", got)
	}
	// u1=[0,0]: members of its (0,2)-ID subtree are u3,u4,u5.
	members := tree.Members(ids[0].Prefix(0).Child(2))
	if len(members) != 3 {
		t.Fatalf("(0,2)-subtree of u1 has %d members, want 3", len(members))
	}
	// u3=[2,0]: its (1,1)-ID subtree holds u4=[2,1].
	members = tree.Members(ids[2].Prefix(1).Child(1))
	if len(members) != 1 || !members[0].Equal(ids[3]) {
		t.Errorf("(1,1)-subtree of u3 = %v, want [u4]", members)
	}
}

func TestTreeInsertRemove(t *testing.T) {
	tree, p, ids := paperTree(t)
	if err := tree.Insert(ids[0]); err == nil {
		t.Error("duplicate insert should fail")
	}
	absent := MustNew(p, []Digit{1, 1})
	if err := tree.Remove(absent); err == nil {
		t.Error("removing absent ID should fail")
	}
	// Removing [2,2] keeps node [2]; removing all of [2,*] prunes it.
	for _, id := range []ID{ids[4], ids[3]} {
		if err := tree.Remove(id); err != nil {
			t.Fatalf("Remove(%v): %v", id, err)
		}
	}
	p2, _ := PrefixOf(p, []Digit{2})
	if !tree.HasNode(p2) {
		t.Error("[2] should survive while [2,0] remains")
	}
	if err := tree.Remove(ids[2]); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if tree.HasNode(p2) {
		t.Error("[2] should be pruned when empty")
	}
	if tree.Size() != 2 {
		t.Errorf("Size = %d, want 2", tree.Size())
	}
	// Reinsert works after pruning.
	if err := tree.Insert(ids[2]); err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	if !tree.Contains(ids[2]) {
		t.Error("reinserted ID missing")
	}
}

func TestTreeWalk(t *testing.T) {
	tree, _, _ := paperTree(t)
	var count, leafCount int
	tree.Walk(func(p Prefix, size int) bool {
		count++
		if p.Len() == tree.Params().Digits {
			leafCount++
			if size != 1 {
				t.Errorf("leaf %v has size %d", p, size)
			}
		}
		return true
	})
	// Nodes: root, [0], [2], and 5 leaves = 8.
	if count != 8 {
		t.Errorf("walk visited %d nodes, want 8", count)
	}
	if leafCount != 5 {
		t.Errorf("walk visited %d leaves, want 5", leafCount)
	}
	// Early termination.
	visits := 0
	tree.Walk(func(Prefix, int) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("early-stop walk visited %d, want 1", visits)
	}
}

// Property: after a random interleaving of inserts and removes, subtree
// sizes are consistent with a brute-force recount at every prefix.
func TestTreeRandomizedConsistency(t *testing.T) {
	p := Params{Digits: 3, Base: 4}
	rng := rand.New(rand.NewSource(42))
	tree := NewTree(p)
	live := make(map[string]ID)

	for step := 0; step < 2000; step++ {
		n := rng.Intn(p.Capacity())
		id, err := FromInt(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := live[id.Key()]; ok {
			if err := tree.Remove(id); err != nil {
				t.Fatalf("step %d Remove(%v): %v", step, id, err)
			}
			delete(live, id.Key())
		} else {
			if err := tree.Insert(id); err != nil {
				t.Fatalf("step %d Insert(%v): %v", step, id, err)
			}
			live[id.Key()] = id
		}
	}

	if tree.Size() != len(live) {
		t.Fatalf("Size = %d, want %d", tree.Size(), len(live))
	}
	// Brute-force count per prefix.
	counts := make(map[Prefix]int)
	for _, id := range live {
		for l := 0; l <= p.Digits; l++ {
			counts[id.Prefix(l)]++
		}
	}
	tree.Walk(func(pfx Prefix, size int) bool {
		if counts[pfx] != size {
			t.Errorf("subtree %v size %d, brute force %d", pfx, size, counts[pfx])
		}
		return true
	})
	for pfx, want := range counts {
		if got := tree.SubtreeSize(pfx); got != want {
			t.Errorf("SubtreeSize(%v) = %d, want %d", pfx, got, want)
		}
	}
	// Members at root equals the live set.
	members := tree.Members(EmptyPrefix)
	if len(members) != len(live) {
		t.Fatalf("Members(root) = %d IDs, want %d", len(members), len(live))
	}
	for _, m := range members {
		if _, ok := live[m.Key()]; !ok {
			t.Errorf("Members returned dead ID %v", m)
		}
	}
}

// TestEachChildDigit: the allocation-free iterator agrees with
// ChildDigits on every node, in the same (increasing) order.
func TestEachChildDigit(t *testing.T) {
	params := Params{Digits: 3, Base: 4}
	var ids []ID
	for _, n := range []int{0, 5, 13, 21, 37, 55, 63} {
		id, err := FromInt(params, n)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	tree, err := BuildTree(params, ids)
	if err != nil {
		t.Fatal(err)
	}
	tree.Walk(func(p Prefix, _ int) bool {
		var got []Digit
		tree.EachChildDigit(p, func(d Digit) { got = append(got, d) })
		want := tree.ChildDigits(p)
		if len(got) != len(want) {
			t.Fatalf("EachChildDigit(%v) yielded %v, ChildDigits %v", p, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("EachChildDigit(%v) yielded %v, ChildDigits %v", p, got, want)
			}
		}
		return true
	})
	// A node with no children (a leaf) and an absent node both yield
	// nothing.
	tree.EachChildDigit(ids[0].Prefix(params.Digits), func(d Digit) {
		t.Errorf("leaf yielded child digit %d", d)
	})
}
