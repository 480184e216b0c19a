package core

import (
	"bytes"
	"testing"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

func testNet(t *testing.T, hosts int) vnet.Network {
	t.Helper()
	cfg := vnet.GTITMConfig{
		TransitDomains:   2,
		TransitPerDomain: 2,
		StubsPerTransit:  2,
		TotalRouters:     150,
		TotalLinks:       380,
		AccessDelayMin:   time.Millisecond,
		AccessDelayMax:   3 * time.Millisecond,
	}
	g, err := vnet.NewGTITM(cfg, hosts, 17)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smallAssign() assign.Config {
	return assign.Config{
		Params:        ident.Params{Digits: 3, Base: 16},
		Thresholds:    []time.Duration{150 * time.Millisecond, 10 * time.Millisecond},
		Percentile:    90,
		CollectTarget: 4,
	}
}

func newGroup(t *testing.T, hosts int, clusterMode bool) *Group {
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

func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup(Config{}); err == nil {
		t.Error("nil network should fail")
	}
	if _, err := NewGroup(Config{Net: testNet(t, 2), K: -1}); err == nil {
		t.Error("negative K should fail")
	}
	bad := smallAssign()
	bad.Percentile = -2
	if _, err := NewGroup(Config{Net: testNet(t, 2), Assign: bad}); err == nil {
		t.Error("invalid assign config should fail")
	}
	// Zero assign config defaults to the paper's parameters.
	g, err := NewGroup(Config{Net: testNet(t, 2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Params() != ident.DefaultParams {
		t.Errorf("default params = %+v", g.Params())
	}
}

// TestFullLifecycle drives joins, an interval, churn, another interval,
// and verifies that every user converges to the server's group key via
// the split rekey messages, end to end with real crypto.
func TestFullLifecycle(t *testing.T) {
	g := newGroup(t, 40, false)
	var members []ident.ID
	for h := 1; h <= 25; h++ {
		id, _, err := g.Join(vnet.HostID(h), time.Duration(h)*time.Second)
		if err != nil {
			t.Fatalf("join %d: %v", h, err)
		}
		members = append(members, id)
	}
	msg, err := g.ProcessInterval()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Cost() == 0 {
		t.Fatal("initial batch produced no encryptions")
	}
	if _, err := g.DistributeRekey(msg); err != nil {
		t.Fatal(err)
	}
	checkConverged(t, g, members)

	// Churn: 5 leave, 5 join.
	for _, id := range members[:5] {
		if err := g.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	members = members[5:]
	for h := 26; h <= 30; h++ {
		id, _, err := g.Join(vnet.HostID(h), time.Duration(h)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, id)
	}
	msg, err = g.ProcessInterval()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.DistributeRekey(msg)
	if err != nil {
		t.Fatal(err)
	}
	checkConverged(t, g, members)
	if g.Size() != 25 || g.Intervals() != 2 {
		t.Errorf("size=%d intervals=%d", g.Size(), g.Intervals())
	}
	// Splitting delivered far fewer encryptions than Cost*N.
	total := 0
	for _, n := range rep.ReceivedPerUser {
		total += n
	}
	if total >= msg.Cost()*len(members) {
		t.Errorf("splitting ineffective: delivered %d vs broadcast %d", total, msg.Cost()*len(members))
	}
}

func checkConverged(t *testing.T, g *Group, members []ident.ID) {
	t.Helper()
	want, ok := g.ServerGroupKey()
	if !ok {
		t.Fatal("server has no group key")
	}
	for _, id := range members {
		got, ok := g.GroupKeyOf(id)
		if !ok || !got.Equal(want) {
			t.Fatalf("user %v group key diverged (ok=%v)", id, ok)
		}
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	g := newGroup(t, 10, false)
	id, _, err := g.Join(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := g.ProcessInterval()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.DistributeRekey(msg); err != nil {
		t.Fatal(err)
	}
	sealed, err := g.SealForGroup([]byte("hello group"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.OpenAsUser(id, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello group")) {
		t.Errorf("decrypted %q", got)
	}
	ghost := ident.MustNew(g.Params(), []ident.Digit{9, 9, 9})
	if _, err := g.OpenAsUser(ghost, sealed); err == nil {
		t.Error("non-member decryption should fail")
	}
}

func TestClusterModeLifecycle(t *testing.T) {
	g := newGroup(t, 40, true)
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
	checkConverged(t, g, members)
	if g.Clusters() == nil || g.Tree() != nil {
		t.Error("cluster mode accessors wrong")
	}
	// Leaders-only key tree is no larger than the membership.
	if lt := g.Clusters().Tree().Size(); lt > g.Size() {
		t.Errorf("leader tree %d > group %d", lt, g.Size())
	}
	// A non-leader leave rekeys nothing.
	var nonLeader ident.ID
	for _, id := range members {
		if !g.Clusters().IsLeader(id) {
			nonLeader = id
			break
		}
	}
	if !nonLeader.IsZero() {
		if err := g.Leave(nonLeader); err != nil {
			t.Fatal(err)
		}
		msg, err := g.ProcessInterval()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Cost() != 0 {
			t.Errorf("non-leader leave cost %d, want 0", msg.Cost())
		}
	}
}

// TestClusterModeGroupKeys pins who holds which group key under
// Appendix B: a leader holds its keyring's; a non-leader holds the key
// the last leader hop handed it, none if it joined since that hop, and
// none once it has left.
func TestClusterModeGroupKeys(t *testing.T) {
	g := newGroup(t, 60, true)
	join := func(h int) ident.ID {
		t.Helper()
		id, _, err := g.Join(vnet.HostID(h), time.Duration(h)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	leave := func(id ident.ID) {
		t.Helper()
		if err := g.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	// interval ends an interval as Session does: only a message that
	// costs something is distributed.
	interval := func() int {
		t.Helper()
		msg, err := g.ProcessInterval()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Cost() > 0 {
			if _, err := g.DistributeRekey(msg); err != nil {
				t.Fatal(err)
			}
		}
		return msg.Cost()
	}
	var members []ident.ID
	for h := 1; h <= 20; h++ {
		members = append(members, join(h))
	}
	interval()
	checkConverged(t, g, members)

	// Admit users one interval at a time until one joins a cluster that
	// has a leader: that interval costs nothing, so nobody hands the
	// joiner a key.
	var joiner ident.ID
	for h := 21; joiner.IsZero(); h++ {
		if h == 60 {
			t.Fatal("no joiner entered an existing cluster")
		}
		if id := join(h); g.Clusters().IsLeader(id) {
			members = append(members, id)
			interval()
		} else {
			joiner = id
		}
	}
	if cost := interval(); cost != 0 {
		t.Fatalf("a non-leader's join cost %d, want 0", cost)
	}
	if _, ok := g.GroupKeyOf(joiner); ok {
		t.Error("a non-leader that joined in a cost-0 interval holds a group key before the next distribute")
	}
	checkConverged(t, g, members)

	// A leader of another cluster leaves: the distribute that follows
	// hands the joiner the server's key.
	var other ident.ID
	for i, id := range members {
		if g.Clusters().IsLeader(id) && g.Clusters().ClusterOf(id) != g.Clusters().ClusterOf(joiner) {
			other, members = id, append(members[:i:i], members[i+1:]...)
			break
		}
	}
	leave(other)
	if cost := interval(); cost == 0 {
		t.Fatal("a leader's leave cost nothing")
	}
	checkConverged(t, g, append(members, joiner))

	leave(joiner)
	if _, ok := g.GroupKeyOf(joiner); ok {
		t.Error("a departed non-leader holds a group key")
	}

	// A leader leaves a cluster it shares: its successor reads its new
	// keyring's key.
	var promoted ident.ID
	for _, id := range members {
		if p := g.Clusters().ClusterOf(id); g.Clusters().IsLeader(id) && len(g.Clusters().Members(p)) > 1 {
			leave(id)
			rec, _ := g.Clusters().Leader(p)
			promoted = rec.ID
			break
		}
	}
	if promoted.IsZero() {
		t.Fatal("no cluster has a leader and another member")
	}
	interval()
	kr, ok := g.KeyringOf(promoted)
	if !ok {
		t.Fatalf("promoted leader %v has no keyring", promoted)
	}
	want, _ := kr.GroupKey()
	if got, ok := g.GroupKeyOf(promoted); !ok || !got.Equal(want) {
		t.Errorf("promoted leader %v does not hold its keyring's group key", promoted)
	}
	if server, _ := g.ServerGroupKey(); !want.Equal(server) {
		t.Errorf("promoted leader %v's keyring does not hold the server's group key", promoted)
	}
}

func TestMulticastData(t *testing.T) {
	g := newGroup(t, 30, false)
	var members []ident.ID
	for h := 1; h <= 15; h++ {
		id, _, err := g.Join(vnet.HostID(h), 0)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, id)
	}
	res, err := g.MulticastData(members[3], 10)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, id := range members {
		if id.Equal(members[3]) {
			continue
		}
		st := res.Users[id]
		if st == nil || st.Received != 1 {
			t.Fatalf("user %v received %+v", id, st)
		}
		delivered++
	}
	if delivered != 14 {
		t.Errorf("delivered to %d users, want 14", delivered)
	}
}

func TestDistributeRekeyValidation(t *testing.T) {
	g := newGroup(t, 5, false)
	if _, err := g.DistributeRekey(nil); err == nil {
		t.Error("nil message should fail")
	}
	if _, err := g.SealForGroup([]byte("x")); err == nil {
		t.Error("empty group has no group key")
	}
}

func TestKeyringOf(t *testing.T) {
	g := newGroup(t, 10, false)
	id, _, err := g.Join(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.KeyringOf(id); ok {
		t.Error("keyring should not exist before the interval is processed")
	}
	msg, err := g.ProcessInterval()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.DistributeRekey(msg); err != nil {
		t.Fatal(err)
	}
	kr, ok := g.KeyringOf(id)
	if !ok || !kr.ID().Equal(id) {
		t.Fatalf("KeyringOf(%v) = %v, %v", id, kr, ok)
	}
	ghost := ident.MustNew(g.Params(), []ident.Digit{9, 9, 9})
	if _, ok := g.KeyringOf(ghost); ok {
		t.Error("non-member should have no keyring")
	}
	if err := g.Leave(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.KeyringOf(id); ok {
		t.Error("a departed member still has a keyring")
	}
	if _, ok := g.GroupKeyOf(id); ok {
		t.Error("a departed member still holds a group key")
	}
}

// KeyringRebuilds returns how many times the server has built a full
// keyring from path keys (join-time unicasts). Incremental maintenance
// means this grows with membership churn, not with interval count.
func (g *Group) KeyringRebuilds() int { return g.keyringRebuilds }
