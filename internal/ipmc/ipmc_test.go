package ipmc

import (
	"testing"
	"time"

	"tmesh/internal/vnet"
)

func testNet(t *testing.T, hosts int) vnet.Network {
	t.Helper()
	cfg := vnet.GTITMConfig{
		TransitDomains:   2,
		TransitPerDomain: 2,
		StubsPerTransit:  2,
		TotalRouters:     120,
		TotalLinks:       300,
		AccessDelayMin:   time.Millisecond,
		AccessDelayMax:   2 * time.Millisecond,
	}
	g, err := vnet.NewGTITM(cfg, hosts, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMulticastTreeProperties(t *testing.T) {
	net := testNet(t, 30)
	receivers := make([]vnet.HostID, 0, 29)
	for h := 1; h < 30; h++ {
		receivers = append(receivers, vnet.HostID(h))
	}
	res, err := Multicast(net, 0, receivers, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delays) != 29 {
		t.Fatalf("delays for %d receivers, want 29", len(res.Delays))
	}
	for _, r := range receivers {
		if res.Delays[r] != net.OneWay(0, r) {
			t.Errorf("receiver %d delay %v, want shortest-path %v", r, res.Delays[r], net.OneWay(0, r))
		}
	}
	// Every tree link carries exactly one copy of the full message.
	for l, c := range res.LinkCopies {
		if c != 1 {
			t.Errorf("link %d carries %d copies, want 1", l, c)
		}
		if res.LinkUnits[l] != 500 {
			t.Errorf("link %d carries %d units, want 500", l, res.LinkUnits[l])
		}
	}
	if res.UnitsPerReceiver != 500 {
		t.Errorf("UnitsPerReceiver = %d, want 500", res.UnitsPerReceiver)
	}
	// The tree has at least as many links as the longest single path.
	longest := 0
	for _, r := range receivers {
		if n := len(net.AppendPathLinks(nil, 0, r)); n > longest {
			longest = n
		}
	}
	if len(res.LinkCopies) < longest {
		t.Errorf("tree has %d links, shorter than the longest branch %d", len(res.LinkCopies), longest)
	}
	if res.Duration <= 0 {
		t.Error("duration should be positive")
	}
}

func TestSourceExcludedFromReceivers(t *testing.T) {
	net := testNet(t, 5)
	res, err := Multicast(net, 0, []vnet.HostID{0, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Delays[0]; ok {
		t.Error("source should not be delivered to itself")
	}
	if len(res.Delays) != 1 {
		t.Errorf("delays = %d, want 1", len(res.Delays))
	}
}

func TestValidation(t *testing.T) {
	net := testNet(t, 5)
	if _, err := Multicast(nil, 0, nil, 1); err == nil {
		t.Error("nil network should fail")
	}
	if _, err := Multicast(net, 0, nil, 0); err == nil {
		t.Error("zero units should fail")
	}
	pl, err := vnet.NewPlanetLab(vnet.PlanetLabConfig{Hosts: 5, JitterFraction: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Multicast(pl, 0, []vnet.HostID{1}, 1); err == nil {
		t.Error("linkless network should fail")
	}
}
