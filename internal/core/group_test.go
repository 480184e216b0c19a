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
		RealCrypto:      true,
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
		st := res.Users[id.Key()]
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
}

// KeyringRebuilds returns how many times the server has built a full
// keyring from path keys (join-time unicasts). Incremental maintenance
// means this grows with membership churn, not with interval count.
func (g *Group) KeyringRebuilds() int { return g.keyringRebuilds }
