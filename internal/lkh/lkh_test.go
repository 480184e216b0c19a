package lkh

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("degree 1 should fail")
	}
	if _, _, err := NewFullBalanced(4, 0); err == nil {
		t.Error("zero users should fail")
	}
}

func TestFullBalancedShape(t *testing.T) {
	tr, users, err := NewFullBalanced(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 1024 || len(users) != 1024 {
		t.Fatalf("size = %d/%d, want 1024", tr.Size(), len(users))
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// 4^5 = 1024: every user at depth exactly 5.
	for _, u := range users {
		d, err := tr.Depth(u)
		if err != nil {
			t.Fatal(err)
		}
		if d != 5 {
			t.Fatalf("user %d at depth %d, want 5", u, d)
		}
	}
	// Path has 6 nodes: u-node + 5 k-nodes.
	path, err := tr.PathNodeIDs(users[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 {
		t.Errorf("path length = %d, want 6", len(path))
	}
}

func TestSingleLeaveCost(t *testing.T) {
	// 4^2 = 16 users, depth 2. One leave updates the leaf's parent
	// (3 remaining children) and the root (4 children): cost 7.
	tr, users, err := NewFullBalanced(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	msg, newUsers, err := tr.Batch(0, []UserHandle{users[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(newUsers) != 0 {
		t.Errorf("no joins requested, got %d new users", len(newUsers))
	}
	if msg.Cost() != 7 {
		t.Errorf("single-leave cost = %d, want 7", msg.Cost())
	}
	if tr.Size() != 15 {
		t.Errorf("size = %d, want 15", tr.Size())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleJoinIntoFullTreeCost(t *testing.T) {
	// Full 16-user tree: the join splits a u-node. Updated: the new
	// k-node (2 children), its parent (4), the root (4): cost 10.
	tr, _, err := NewFullBalanced(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	msg, newUsers, err := tr.Batch(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(newUsers) != 1 {
		t.Fatalf("new users = %d, want 1", len(newUsers))
	}
	if msg.Cost() != 10 {
		t.Errorf("single-join cost = %d, want 10", msg.Cost())
	}
	if d, _ := tr.Depth(newUsers[0]); d != 3 {
		t.Errorf("split join at depth %d, want 3", d)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinReplacesDeparted(t *testing.T) {
	// J = L: every joiner takes a departed slot, so the tree shape is
	// unchanged and cost equals that of the leaves alone.
	tr, users, err := NewFullBalanced(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	msg, newUsers, err := tr.Batch(1, []UserHandle{users[3]})
	if err != nil {
		t.Fatal(err)
	}
	if len(newUsers) != 1 {
		t.Fatalf("new users = %d, want 1", len(newUsers))
	}
	if tr.Size() != 16 {
		t.Errorf("size = %d, want 16", tr.Size())
	}
	if d, _ := tr.Depth(newUsers[0]); d != 2 {
		t.Errorf("replacement join at depth %d, want 2", d)
	}
	// Parent (4 children) + root (4 children) = 8 encryptions.
	if msg.Cost() != 8 {
		t.Errorf("replace cost = %d, want 8", msg.Cost())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchValidation(t *testing.T) {
	tr, users, err := NewFullBalanced(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Batch(-1, nil); err == nil {
		t.Error("negative joins should fail")
	}
	if _, _, err := tr.Batch(0, []UserHandle{999}); err == nil {
		t.Error("unknown leaver should fail")
	}
	if _, _, err := tr.Batch(0, []UserHandle{users[0], users[0]}); err == nil {
		t.Error("duplicate leaver should fail")
	}
}

func TestNeedsViaPathMembership(t *testing.T) {
	tr, users, err := NewFullBalanced(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := tr.Batch(0, []UserHandle{users[0]})
	if err != nil {
		t.Fatal(err)
	}
	// A sibling of the leaver needs 2 encryptions (parent key under its
	// own individual key; root key under parent key); a user in another
	// subtree needs exactly 1 (root key under its level-1 key).
	pathSet := func(u UserHandle) map[int]bool {
		path, err := tr.PathNodeIDs(u)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[int]bool, len(path))
		for _, id := range path {
			set[id] = true
		}
		return set
	}
	needs := func(u UserHandle) int {
		set := pathSet(u)
		n := 0
		for _, e := range msg.Encryptions {
			if set[e.Parent] && set[e.Child] {
				n++
			}
		}
		return n
	}
	if got := needs(users[1]); got != 2 {
		t.Errorf("sibling needs %d encryptions, want 2", got)
	}
	if got := needs(users[8]); got != 1 {
		t.Errorf("remote user needs %d encryptions, want 1", got)
	}
}

func TestDrainToEmpty(t *testing.T) {
	tr, users, err := NewFullBalanced(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Batch(0, users); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 0 {
		t.Errorf("size = %d, want 0", tr.Size())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// The tree can be refilled.
	msg, newUsers, err := tr.Batch(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(newUsers) != 5 || tr.Size() != 5 {
		t.Fatalf("refill: %d users, size %d", len(newUsers), tr.Size())
	}
	if msg.Cost() == 0 {
		t.Error("refill should produce encryptions")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// Property: random batches keep the tree structurally valid, the user
// count correct, and depth logarithmic-ish.
func TestRandomBatchesInvariant(t *testing.T) {
	tr, users, err := NewFullBalanced(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	live := append([]UserHandle(nil), users...)
	for round := 0; round < 40; round++ {
		nJoin := rng.Intn(8)
		nLeave := rng.Intn(8)
		if nLeave > len(live) {
			nLeave = len(live)
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		leavers := append([]UserHandle(nil), live[:nLeave]...)
		live = live[nLeave:]
		msg, newUsers, err := tr.Batch(nJoin, leavers)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		live = append(live, newUsers...)
		if err := tr.Check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tr.Size() != len(live) {
			t.Fatalf("round %d: size %d, want %d", round, tr.Size(), len(live))
		}
		if nJoin+nLeave == 0 && msg.Cost() != 0 {
			t.Fatalf("round %d: idle batch cost %d", round, msg.Cost())
		}
		if tr.Size() > 0 && tr.MaxDepth() > 12 {
			t.Fatalf("round %d: tree degenerated to depth %d", round, tr.MaxDepth())
		}
	}
}

// The modified key tree is expected to cost more than the original for
// the same churn (Fig. 12 (b)); here we only sanity-check the original
// tree's scaling: batch cost grows sublinearly in group size for a fixed
// number of leaves.
func TestCostScalesWithDepthNotSize(t *testing.T) {
	cost := func(n int) int {
		tr, users, err := NewFullBalanced(4, n)
		if err != nil {
			t.Fatal(err)
		}
		msg, _, err := tr.Batch(0, []UserHandle{users[0]})
		if err != nil {
			t.Fatal(err)
		}
		return msg.Cost()
	}
	c64, c1024 := cost(64), cost(1024)
	if c1024 >= 16*c64 {
		t.Errorf("cost grew like N: %d -> %d", c64, c1024)
	}
	if c1024 <= c64 {
		t.Errorf("deeper tree should cost a bit more: %d -> %d", c64, c1024)
	}
}

// TestClosedFormsMatchSimulation validates the analytic single-join and
// single-leave costs against the implementation across tree shapes.
func TestClosedFormsMatchSimulation(t *testing.T) {
	for _, degree := range []int{2, 3, 4, 5} {
		for height := 1; height <= 4; height++ {
			n := 1
			for i := 0; i < height; i++ {
				n *= degree
			}
			t.Run("", func(t *testing.T) {
				tr, users, err := NewFullBalanced(degree, n)
				if err != nil {
					t.Fatal(err)
				}
				msg, _, err := tr.Batch(0, []UserHandle{users[n/2]})
				if err != nil {
					t.Fatal(err)
				}
				if want := SingleLeaveCostFull(degree, height); msg.Cost() != want {
					t.Errorf("d=%d h=%d leave cost %d, want %d", degree, height, msg.Cost(), want)
				}

				tr2, _, err := NewFullBalanced(degree, n)
				if err != nil {
					t.Fatal(err)
				}
				msg2, _, err := tr2.Batch(1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := SingleJoinCostFull(degree, height); msg2.Cost() != want {
					t.Errorf("d=%d h=%d join cost %d, want %d", degree, height, msg2.Cost(), want)
				}
			})
		}
	}
}

// MaxDepth returns the depth of the deepest u-node.
func (t *Tree) MaxDepth() int {
	max := 0
	for u := range t.leaves {
		if d, err := t.Depth(u); err == nil && d > max {
			max = d
		}
	}
	return max
}

// SingleLeaveCostFull returns the analytic rekey cost of one departure
// from a full balanced tree of the given degree and height: the leaf's
// parent re-keys under its remaining degree-1 children, and each of the
// height-1 ancestors under all degree children — degree*height - 1.
//
// Degree 2 is special: the leaf's parent is left with a single child,
// which the tree compacts by promotion, so only the height-1 ancestors
// re-key — 2*(height-1) — except at height 1 where the parent is the
// root (never compacted) and the cost is 1.
func SingleLeaveCostFull(degree, height int) int {
	if degree == 2 && height > 1 {
		return 2 * (height - 1)
	}
	return degree*height - 1
}

// SingleJoinCostFull returns the analytic rekey cost of one join into a
// full balanced tree: the join splits a leaf into a fresh k-node with 2
// children, and every ancestor (height of them) re-keys under degree
// children — 2 + degree*height.
func SingleJoinCostFull(degree, height int) int {
	return 2 + degree*height
}

// Depth returns the user's depth (number of edges from root to u-node).
func (t *Tree) Depth(u UserHandle) (int, error) {
	leaf, ok := t.leaves[u]
	if !ok {
		return 0, fmt.Errorf("lkh: unknown user %d", u)
	}
	d := 0
	for n := leaf; n.parent != nil; n = n.parent {
		d++
	}
	return d, nil
}
