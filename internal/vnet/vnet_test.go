package vnet

import (
	"testing"
	"time"
)

func testGTITM(t *testing.T, hosts int) *GTITM {
	t.Helper()
	g, err := NewGTITM(DefaultGTITMConfig(), hosts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGTITMShape(t *testing.T) {
	g := testGTITM(t, 64)
	if g.NumRouters() != 5000 {
		t.Errorf("routers = %d, want 5000", g.NumRouters())
	}
	if l := g.NumLinks(); l < 12900 || l > 13100 {
		t.Errorf("links = %d, want ~13000", l)
	}
	if g.NumHosts() != 64 {
		t.Errorf("hosts = %d, want 64", g.NumHosts())
	}
}

func TestGTITMConfigValidation(t *testing.T) {
	bad := DefaultGTITMConfig()
	bad.TotalRouters = 40 // equals transit count
	if _, err := NewGTITM(bad, 4, 1); err == nil {
		t.Error("config with no stub routers should fail")
	}
	bad2 := DefaultGTITMConfig()
	bad2.TransitDomains = 0
	if _, err := NewGTITM(bad2, 4, 1); err == nil {
		t.Error("zero transit domains should fail")
	}
	bad3 := DefaultGTITMConfig()
	bad3.AccessDelayMax = bad3.AccessDelayMin - 1
	if _, err := NewGTITM(bad3, 4, 1); err == nil {
		t.Error("inverted access delay range should fail")
	}
	bad4 := DefaultGTITMConfig()
	bad4.TotalRouters = 40 + 119 // one router short of one per stub domain
	if _, err := NewGTITM(bad4, 4, 1); err == nil {
		t.Error("a stub domain without routers should fail")
	}
	if _, err := NewGTITM(DefaultGTITMConfig(), 0, 1); err == nil {
		t.Error("zero hosts should fail")
	}
}

func TestGTITMMetricProperties(t *testing.T) {
	g := testGTITM(t, 32)
	n := g.NumHosts()
	for a := 0; a < n; a++ {
		if g.RTT(HostID(a), HostID(a)) != 0 {
			t.Fatalf("RTT(a,a) != 0 for host %d", a)
		}
		for b := a + 1; b < n; b++ {
			ha, hb := HostID(a), HostID(b)
			if g.RTT(ha, hb) != g.RTT(hb, ha) {
				t.Fatalf("RTT not symmetric for (%d,%d)", a, b)
			}
			if g.RTT(ha, hb) <= 0 {
				t.Fatalf("RTT(%d,%d) = %v, want > 0", a, b, g.RTT(ha, hb))
			}
			if g.OneWay(ha, hb) != g.RTT(ha, hb)/2 {
				t.Fatalf("OneWay != RTT/2 for (%d,%d)", a, b)
			}
			wantRTT := g.AccessRTT(ha) + g.GatewayRTT(ha, hb) + g.AccessRTT(hb)
			if g.RTT(ha, hb) != wantRTT {
				t.Fatalf("RTT decomposition broken for (%d,%d)", a, b)
			}
		}
	}
}

// Shortest-path distances must satisfy the triangle inequality at the
// router level (they are exact Dijkstra distances).
func TestGTITMTriangleInequality(t *testing.T) {
	g := testGTITM(t, 24)
	n := g.NumHosts()
	for a := 0; a < n; a += 3 {
		for b := 1; b < n; b += 5 {
			for c := 2; c < n; c += 7 {
				ab := g.GatewayRTT(HostID(a), HostID(b))
				bc := g.GatewayRTT(HostID(b), HostID(c))
				ac := g.GatewayRTT(HostID(a), HostID(c))
				if ac > ab+bc+time.Microsecond {
					t.Fatalf("triangle violated: d(%d,%d)=%v > %v+%v", a, c, ac, ab, bc)
				}
			}
		}
	}
}

func TestGTITMPathLinks(t *testing.T) {
	g := testGTITM(t, 16)
	// One buffer serves every lookup; its first element belongs to the
	// caller and must survive each append.
	const mark = LinkID(-7)
	buf := []LinkID{mark}
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			ha, hb := HostID(a), HostID(b)
			buf = g.AppendPathLinks(buf[:1], ha, hb)
			if buf[0] != mark {
				t.Fatalf("AppendPathLinks(%d,%d) overwrote the caller's prefix", a, b)
			}
			path := buf[1:]
			if g.GatewayRouter(ha) == g.GatewayRouter(hb) {
				if len(path) != 0 {
					t.Fatalf("same-gateway hosts should have empty path")
				}
				continue
			}
			if len(path) == 0 {
				t.Fatalf("hosts %d,%d on distinct routers have empty path", a, b)
			}
			for _, l := range path {
				if l < 0 || int(l) >= g.NumLinks() {
					t.Fatalf("path contains invalid link %d", l)
				}
			}
			// Forward and reverse paths have equal length (same SPT cost).
			rev := g.AppendPathLinks(nil, hb, ha)
			if len(rev) != len(path) {
				// Equal-cost multipath can differ in hops; lengths in
				// links may differ only if costs tie. Verify cost match.
				if g.GatewayRTT(ha, hb) != g.GatewayRTT(hb, ha) {
					t.Fatalf("asymmetric gateway RTT for (%d,%d)", a, b)
				}
			}
		}
	}
}

func TestGTITMDeterminism(t *testing.T) {
	a := testGTITM(t, 20)
	b := testGTITM(t, 20)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if a.RTT(HostID(i), HostID(j)) != b.RTT(HostID(i), HostID(j)) {
				t.Fatalf("same seed produced different RTT(%d,%d)", i, j)
			}
		}
	}
	c, err := NewGTITM(DefaultGTITMConfig(), 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 20 && same; i++ {
		for j := i + 1; j < 20; j++ {
			if a.RTT(HostID(i), HostID(j)) != c.RTT(HostID(i), HostID(j)) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical matrices")
	}
}

// Delay classes: hosts in the same stub domain should be millisecond-close
// at the gateway level, and some host pairs (across transit domains)
// should see RTTs dominated by the 75–85 ms inter-domain links.
func TestGTITMDelayClasses(t *testing.T) {
	g := testGTITM(t, 200)
	var maxRTT time.Duration
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			if d := g.GatewayRTT(HostID(i), HostID(j)); d > maxRTT {
				maxRTT = d
			}
		}
	}
	if maxRTT < 150*time.Millisecond {
		t.Errorf("max gateway RTT %v suspiciously small: inter-domain links missing?", maxRTT)
	}
	if maxRTT > 600*time.Millisecond {
		t.Errorf("max gateway RTT %v suspiciously large", maxRTT)
	}
}

func TestPlanetLabShape(t *testing.T) {
	p, err := NewPlanetLab(DefaultPlanetLabConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumHosts() != 227 {
		t.Errorf("hosts = %d, want 227", p.NumHosts())
	}
	if p.NumLinks() != 0 {
		t.Errorf("PlanetLab models no links, got %d", p.NumLinks())
	}
	if path := p.AppendPathLinks(nil, 0, 1); path != nil {
		t.Errorf("a delay matrix appended path %v, want nothing", path)
	}
	counts := make(map[int]int)
	for h := 0; h < p.NumHosts(); h++ {
		counts[p.Continent(HostID(h))]++
	}
	if len(counts) != 4 {
		t.Fatalf("expected hosts on 4 continents, got %d", len(counts))
	}
	if counts[0] <= counts[1] || counts[1] <= counts[3] {
		t.Errorf("continent proportions look wrong: %v", counts)
	}
}

func TestPlanetLabValidation(t *testing.T) {
	if _, err := NewPlanetLab(PlanetLabConfig{Hosts: 1}, 1); err == nil {
		t.Error("1-host matrix should fail")
	}
	if _, err := NewPlanetLab(PlanetLabConfig{Hosts: 10, JitterFraction: 1.5}, 1); err == nil {
		t.Error("jitter >= 1 should fail")
	}
}

func TestPlanetLabMetricStructure(t *testing.T) {
	p, err := NewPlanetLab(DefaultPlanetLabConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumHosts()
	var sameSite, sameCont, crossCont []time.Duration
	for i := 0; i < n; i++ {
		if p.RTT(HostID(i), HostID(i)) != 0 {
			t.Fatal("RTT(a,a) != 0")
		}
		for j := i + 1; j < n; j++ {
			a, b := HostID(i), HostID(j)
			if p.RTT(a, b) != p.RTT(b, a) {
				t.Fatal("asymmetric RTT")
			}
			d := p.GatewayRTT(a, b)
			switch {
			case p.Site(a) == p.Site(b):
				sameSite = append(sameSite, d)
			case p.Continent(a) == p.Continent(b):
				sameCont = append(sameCont, d)
			default:
				crossCont = append(crossCont, d)
			}
		}
	}
	med := func(ds []time.Duration) time.Duration {
		if len(ds) == 0 {
			t.Fatal("empty class")
		}
		// Median by partial selection is overkill; simple scan for a
		// robust midpoint via sort-free percentile is unnecessary here.
		cp := append([]time.Duration(nil), ds...)
		for i := 1; i < len(cp); i++ {
			for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
				cp[j-1], cp[j] = cp[j], cp[j-1]
			}
		}
		return cp[len(cp)/2]
	}
	ms, mc, mx := med(sameSite), med(sameCont), med(crossCont)
	if !(ms < mc && mc < mx) {
		t.Errorf("RTT hierarchy broken: same-site %v, same-continent %v, cross-continent %v", ms, mc, mx)
	}
	if ms > 10*time.Millisecond {
		t.Errorf("median same-site gateway RTT %v too large", ms)
	}
	if mx < 60*time.Millisecond {
		t.Errorf("median cross-continent RTT %v too small", mx)
	}
}

func TestContinentName(t *testing.T) {
	if ContinentName(0) != "north-america" || ContinentName(3) != "australia" {
		t.Error("continent names wrong")
	}
}

// GatewayRouter returns the router the host attaches to.
func (g *GTITM) GatewayRouter(h HostID) int { return int(g.hosts[h].router) }
