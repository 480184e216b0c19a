package cluster

import (
	"math/rand"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

var tp = ident.Params{Digits: 3, Base: 4}

func newManager(t *testing.T) *Manager {
	t.Helper()
	m, err := New(tp, []byte("cluster-test"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func rec(t *testing.T, host int, joinTime time.Duration, digits ...ident.Digit) overlay.Record {
	t.Helper()
	return overlay.Record{
		Host:     vnet.HostID(host),
		ID:       ident.MustNew(tp, digits),
		JoinTime: joinTime,
	}
}

func TestFirstJoinBecomesLeaderAndRekeys(t *testing.T) {
	m := newManager(t)
	a := rec(t, 1, 10, 0, 0, 0)
	if err := m.Join(a); err != nil {
		t.Fatal(err)
	}
	if !m.IsLeader(a.ID) {
		t.Error("first cluster member should lead")
	}
	res, err := m.Process()
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderJoins != 1 || res.Message.Cost() == 0 {
		t.Errorf("leader join should rekey: %+v, cost %d", res, res.Message.Cost())
	}
	if m.Tree().Size() != 1 {
		t.Errorf("key tree holds %d u-nodes, want 1 (leaders only)", m.Tree().Size())
	}
}

func TestNonLeaderJoinAvoidsRekeying(t *testing.T) {
	m := newManager(t)
	a := rec(t, 1, 10, 0, 0, 0)
	b := rec(t, 2, 20, 0, 0, 1) // same bottom cluster [0,0]
	if err := m.Join(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Process(); err != nil {
		t.Fatal(err)
	}
	if err := m.Join(b); err != nil {
		t.Fatal(err)
	}
	if m.IsLeader(b.ID) {
		t.Error("later join must not displace the leader")
	}
	res, err := m.Process()
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderJoins != 0 || res.Message.Cost() != 0 {
		t.Errorf("non-leader join must not rekey: %+v", res)
	}
	if got := m.PairwiseMessages(); got != 4 {
		t.Errorf("PairwiseMessages = %d, want 4 (the non-leader's pairwise set-up)", got)
	}
	if m.Tree().Size() != 1 {
		t.Errorf("tree size = %d, want 1", m.Tree().Size())
	}
}

func TestNonLeaderLeaveAvoidsRekeying(t *testing.T) {
	m := newManager(t)
	a := rec(t, 1, 10, 0, 0, 0)
	b := rec(t, 2, 20, 0, 0, 1)
	for _, r := range []overlay.Record{a, b} {
		if err := m.Join(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Process(); err != nil {
		t.Fatal(err)
	}
	if err := m.Leave(b.ID); err != nil {
		t.Fatal(err)
	}
	res, err := m.Process()
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderLeaves != 0 || res.Message.Cost() != 0 {
		t.Errorf("non-leader leave must not rekey: %+v", res)
	}
	if m.Size() != 1 {
		t.Errorf("Size = %d, want 1", m.Size())
	}
}

func TestLeaderLeaveTransfersLeadership(t *testing.T) {
	m := newManager(t)
	a := rec(t, 1, 10, 0, 0, 0)
	b := rec(t, 2, 20, 0, 0, 1)
	c := rec(t, 3, 30, 0, 0, 2)
	for _, r := range []overlay.Record{a, b, c} {
		if err := m.Join(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Process(); err != nil {
		t.Fatal(err)
	}
	if err := m.Leave(a.ID); err != nil {
		t.Fatal(err)
	}
	// Earliest remaining (b) leads.
	if !m.IsLeader(b.ID) {
		t.Error("leadership should transfer to the earliest-joined member")
	}
	// Two non-leader joins (4 each), then c re-keys pairwise with b (2).
	if got := m.PairwiseMessages(); got != 10 {
		t.Errorf("PairwiseMessages = %d, want 10", got)
	}
	res, err := m.Process()
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderLeaves != 1 || res.LeaderJoins != 1 {
		t.Errorf("leader handover should leave+join: %+v", res)
	}
	if res.Message.Cost() == 0 {
		t.Error("leader handover must rekey the group")
	}
	if m.Tree().Size() != 1 {
		t.Errorf("tree size = %d, want 1", m.Tree().Size())
	}
	// The new leader's u-node replaced the old one.
	if !m.Tree().Structure().Contains(b.ID) || m.Tree().Structure().Contains(a.ID) {
		t.Error("key tree should hold the new leader only")
	}
}

func TestClusterDissolves(t *testing.T) {
	m := newManager(t)
	a := rec(t, 1, 10, 1, 1, 0)
	if err := m.Join(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Process(); err != nil {
		t.Fatal(err)
	}
	if err := m.Leave(a.ID); err != nil {
		t.Fatal(err)
	}
	res, err := m.Process()
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderLeaves != 1 {
		t.Errorf("sole leader leave should rekey: %+v", res)
	}
	if m.Clusters() != 0 || m.Size() != 0 || m.Tree().Size() != 0 {
		t.Errorf("cluster should dissolve: clusters=%d size=%d tree=%d",
			m.Clusters(), m.Size(), m.Tree().Size())
	}
}

func TestLeaderChurnWithinOneInterval(t *testing.T) {
	m := newManager(t)
	a := rec(t, 1, 10, 2, 2, 0)
	b := rec(t, 2, 20, 2, 2, 1)
	// a joins (queued as leader join) and leaves again before Process;
	// b inherits. Net effect: only b joins the tree.
	if err := m.Join(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Join(b); err != nil {
		t.Fatal(err)
	}
	if err := m.Leave(a.ID); err != nil {
		t.Fatal(err)
	}
	res, err := m.Process()
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderJoins != 1 || res.LeaderLeaves != 0 {
		t.Errorf("net churn should be a single join: %+v", res)
	}
	if !m.Tree().Structure().Contains(b.ID) || m.Tree().Structure().Contains(a.ID) {
		t.Error("tree should contain only the surviving leader")
	}
}

func TestLeaveValidation(t *testing.T) {
	m := newManager(t)
	if err := m.Leave(ident.MustNew(tp, []ident.Digit{0, 0, 0})); err == nil {
		t.Error("leave of unknown user should fail")
	}
	a := rec(t, 1, 1, 0, 0, 0)
	if err := m.Join(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Join(a); err == nil {
		t.Error("duplicate join should fail")
	}
	ghost := rec(t, 2, 2, 0, 0, 3)
	if err := m.Leave(ghost.ID); err == nil {
		t.Error("leave of non-member in existing cluster should fail")
	}
}

// TestHeuristicReducesCost: under churn where most users are non-leaders,
// the heuristic's rekey cost is far below rekeying every join/leave.
func TestHeuristicReducesCost(t *testing.T) {
	m := newManager(t)
	// Full tree without heuristic for comparison.
	plain, err := keytree.New(tp, []byte("plain"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var all []overlay.Record
	var allIDs []ident.ID
	used := make(map[ident.ID]bool)
	for len(all) < 40 {
		id, err := ident.FromInt(tp, rng.Intn(tp.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		if used[id] {
			continue
		}
		used[id] = true
		r := overlay.Record{Host: vnet.HostID(len(all) + 1), ID: id, JoinTime: time.Duration(len(all))}
		all = append(all, r)
		allIDs = append(allIDs, id)
	}
	for _, r := range all {
		if err := m.Join(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Process(); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Batch(allIDs, nil); err != nil {
		t.Fatal(err)
	}

	// Churn: the 10 most recently joined users leave (non-leaders with
	// high probability).
	var leavers []ident.ID
	for _, r := range all[30:] {
		leavers = append(leavers, r.ID)
		if err := m.Leave(r.ID); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Process()
	if err != nil {
		t.Fatal(err)
	}
	plainMsg, err := plain.Batch(nil, leavers)
	if err != nil {
		t.Fatal(err)
	}
	if res.Message.Cost() >= plainMsg.Cost() {
		t.Errorf("heuristic cost %d >= plain modified-tree cost %d", res.Message.Cost(), plainMsg.Cost())
	}
	if m.PairwiseMessages() == 0 {
		t.Error("pairwise bookkeeping should have been counted")
	}
}

func TestLeaderAndMembersAccessors(t *testing.T) {
	m := newManager(t)
	a := rec(t, 1, 10, 0, 0, 0)
	b := rec(t, 2, 20, 0, 0, 1)
	for _, r := range []overlay.Record{a, b} {
		if err := m.Join(r); err != nil {
			t.Fatal(err)
		}
	}
	pfx := m.ClusterOf(a.ID)
	leader, ok := m.Leader(pfx)
	if !ok || !leader.ID.Equal(a.ID) {
		t.Errorf("Leader = %v, %v; want %v", leader.ID, ok, a.ID)
	}
	members := m.Members(pfx)
	if len(members) != 2 {
		t.Fatalf("Members = %d, want 2", len(members))
	}
	if members[0].ID.Compare(members[1].ID) >= 0 {
		t.Error("Members not in ID order")
	}
	// Unknown cluster.
	other := m.ClusterOf(ident.MustNew(tp, []ident.Digit{3, 3, 3}))
	if _, ok := m.Leader(other); ok {
		t.Error("unknown cluster should have no leader")
	}
	if got := m.Members(other); got != nil {
		t.Errorf("unknown cluster members = %v", got)
	}
}
