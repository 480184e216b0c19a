package nice

import (
	"math/rand"
	"testing"
	"time"

	"tmesh/internal/vnet"
)

func testNet(t *testing.T, hosts int, seed int64) vnet.Network {
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
	g, err := vnet.NewGTITM(cfg, hosts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newProto(t *testing.T, hosts int, seed int64) *Protocol {
	t.Helper()
	p, err := New(testNet(t, hosts, seed), DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	net := testNet(t, 4, 1)
	if _, err := New(nil, 3); err == nil {
		t.Error("nil network should fail")
	}
	if _, err := New(net, 1); err == nil {
		t.Error("k=1 should fail")
	}
}

func TestSequentialJoinsKeepInvariants(t *testing.T) {
	p := newProto(t, 130, 2)
	for h := 1; h <= 128; h++ {
		if err := p.Join(vnet.HostID(h)); err != nil {
			t.Fatalf("join %d: %v", h, err)
		}
		if err := p.Check(); err != nil {
			t.Fatalf("after join %d: %v", h, err)
		}
	}
	if p.Size() != 128 {
		t.Fatalf("Size = %d, want 128", p.Size())
	}
	if p.Layers() < 2 {
		t.Errorf("128 members in %d layers; hierarchy did not grow", p.Layers())
	}
	if _, ok := p.Root(); !ok {
		t.Error("root missing")
	}
	if err := p.Join(5); err == nil {
		t.Error("duplicate join should fail")
	}
}

func TestLeavesKeepInvariants(t *testing.T) {
	p := newProto(t, 100, 3)
	for h := 1; h <= 90; h++ {
		if err := p.Join(vnet.HostID(h)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	alive := make([]vnet.HostID, 0, 90)
	for h := 1; h <= 90; h++ {
		alive = append(alive, vnet.HostID(h))
	}
	for len(alive) > 0 {
		i := rng.Intn(len(alive))
		h := alive[i]
		alive = append(alive[:i], alive[i+1:]...)
		if err := p.Leave(h); err != nil {
			t.Fatalf("leave %d: %v", h, err)
		}
		if err := p.Check(); err != nil {
			t.Fatalf("after leave %d (%d remain): %v", h, len(alive), err)
		}
	}
	if p.Size() != 0 {
		t.Errorf("Size = %d after draining, want 0", p.Size())
	}
	if err := p.Leave(1); err == nil {
		t.Error("leave of departed host should fail")
	}
}

func TestRandomChurnInvariants(t *testing.T) {
	p := newProto(t, 200, 5)
	rng := rand.New(rand.NewSource(6))
	live := map[vnet.HostID]bool{}
	next := vnet.HostID(1)
	var order []vnet.HostID
	for step := 0; step < 400; step++ {
		if len(live) == 0 || (rng.Float64() < 0.6 && int(next) < 199) {
			if err := p.Join(next); err != nil {
				t.Fatalf("step %d join: %v", step, err)
			}
			live[next] = true
			order = append(order, next)
			next++
		} else {
			i := rng.Intn(len(order))
			h := order[i]
			if !live[h] {
				continue
			}
			if err := p.Leave(h); err != nil {
				t.Fatalf("step %d leave %d: %v", step, h, err)
			}
			delete(live, h)
		}
		if err := p.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if p.Size() != len(live) {
			t.Fatalf("step %d: size %d, want %d", step, p.Size(), len(live))
		}
	}
}

func TestDataMulticastExactlyOnce(t *testing.T) {
	p := newProto(t, 80, 7)
	for h := 1; h <= 70; h++ {
		if err := p.Join(vnet.HostID(h)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sender := range []vnet.HostID{1, 17, 42, 70} {
		res, err := p.Multicast(sender, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for h := vnet.HostID(1); h <= 70; h++ {
			st := res.Members[h]
			if h == sender {
				if st.Received != 0 {
					t.Errorf("sender %d received %d copies", h, st.Received)
				}
				continue
			}
			if st.Received != 1 {
				t.Errorf("sender %d -> member %d received %d copies, want 1", sender, h, st.Received)
			}
			if st.Delay <= 0 {
				t.Errorf("member %d delay %v", h, st.Delay)
			}
			if st.RDP < 1-1e-9 {
				t.Errorf("member %d RDP %.2f < 1", h, st.RDP)
			}
		}
		if len(res.LinkCopies) == 0 {
			t.Error("no link stress recorded")
		}
	}
}

func TestRekeyMulticastFromServer(t *testing.T) {
	p := newProto(t, 80, 8)
	for h := 1; h <= 60; h++ {
		if err := p.Join(vnet.HostID(h)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Multicast(0, Options{FromServer: true, ServerHost: 0, Units: 100})
	if err != nil {
		t.Fatal(err)
	}
	root, _ := p.Root()
	for h := vnet.HostID(1); h <= 60; h++ {
		st := res.Members[h]
		if st.Received != 1 {
			t.Errorf("member %d received %d copies, want 1 (root=%d)", h, st.Received, root)
		}
		if st.UnitsReceived != 100 {
			t.Errorf("member %d received %d units, want 100 (no splitting)", h, st.UnitsReceived)
		}
	}
	if res.SenderStress != 1 {
		t.Errorf("server stress %d, want 1 (unicast to root)", res.SenderStress)
	}
	// The root bears high forwarded load: it forwards to all its
	// clusters at every layer.
	rootStats := res.Members[root]
	if rootStats.Stress == 0 {
		t.Error("root forwarded nothing")
	}
}

func TestRekeySplittingOverNICE(t *testing.T) {
	p := newProto(t, 60, 9)
	for h := 1; h <= 40; h++ {
		if err := p.Join(vnet.HostID(h)); err != nil {
			t.Fatal(err)
		}
	}
	// Model: only members with even host IDs need any of the 50 units;
	// a hop is worth the number of needy downstream members (crude but
	// exercises the plumbing).
	res, err := p.Multicast(0, Options{
		FromServer: true,
		ServerHost: 0,
		Units:      50,
		UnitsFor: func(recv vnet.HostID, downstream []vnet.HostID) int {
			n := 0
			for _, h := range downstream {
				if h%2 == 0 {
					n++
				}
			}
			return n
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for h := vnet.HostID(1); h <= 40; h++ {
		st := res.Members[h]
		switch {
		case h%2 == 0 && st.UnitsReceived == 0 && h != mustRoot(t, p):
			t.Errorf("needy member %d received nothing", h)
		case h%2 == 1 && st.Received > 0 && st.UnitsReceived == 0:
			t.Errorf("member %d received a copy with zero units", h)
		}
	}
	// Total units forwarded must be well below the no-split total.
	full, err := p.Multicast(0, Options{FromServer: true, ServerHost: 0, Units: 50})
	if err != nil {
		t.Fatal(err)
	}
	var splitSum, fullSum int
	for h := range res.Members {
		splitSum += res.Members[h].UnitsReceived
		fullSum += full.Members[h].UnitsReceived
	}
	if splitSum >= fullSum {
		t.Errorf("splitting did not reduce units: %d >= %d", splitSum, fullSum)
	}
}

func mustRoot(t *testing.T, p *Protocol) vnet.HostID {
	t.Helper()
	r, ok := p.Root()
	if !ok {
		t.Fatal("no root")
	}
	return r
}

func TestMulticastValidation(t *testing.T) {
	p := newProto(t, 10, 10)
	if _, err := p.Multicast(1, Options{}); err == nil {
		t.Error("empty group should fail")
	}
	if err := p.Join(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Multicast(9, Options{}); err == nil {
		t.Error("non-member sender should fail")
	}
}

func TestSingleMemberGroup(t *testing.T) {
	p := newProto(t, 10, 11)
	if err := p.Join(3); err != nil {
		t.Fatal(err)
	}
	res, err := p.Multicast(0, Options{FromServer: true, ServerHost: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Members[3].Received != 1 {
		t.Error("sole member should receive the root unicast")
	}
	if err := p.Leave(3); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 0 || p.Layers() != 0 {
		t.Error("group should be empty")
	}
}

// Root returns the hierarchy root (the top cluster's leader).
func (p *Protocol) Root() (vnet.HostID, bool) {
	if p.top == nil {
		return 0, false
	}
	return p.top.leader, true
}

// Layers returns the number of layers (top cluster layer + 1).
func (p *Protocol) Layers() int {
	if p.top == nil {
		return 0
	}
	return p.top.layer + 1
}
