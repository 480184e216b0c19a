package gnp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

func planetLab(t *testing.T, hosts int) *vnet.PlanetLab {
	t.Helper()
	p, err := vnet.NewPlanetLab(vnet.PlanetLabConfig{Hosts: hosts, JitterFraction: 0.03}, 7)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewSpaceValidation(t *testing.T) {
	net := planetLab(t, 30)
	if _, err := NewSpace(nil, Config{}); err == nil {
		t.Error("nil network should fail")
	}
	if _, err := NewSpace(net, Config{Landmarks: 3, Dimensions: 5}); err == nil {
		t.Error("too few landmarks should fail")
	}
	if _, err := NewSpace(net, Config{Landmarks: 64}); err == nil {
		t.Error("more landmarks than hosts should fail")
	}
}

// TestCoordinateAccuracy: coordinate distances must approximate gateway
// RTTs well enough for the threshold decisions — same-site pairs must
// estimate far below cross-continent pairs.
func TestCoordinateAccuracy(t *testing.T) {
	net := planetLab(t, 120)
	space, err := NewSpace(net, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if space.ProbeCount() != 8 {
		t.Errorf("ProbeCount = %d, want 8", space.ProbeCount())
	}
	coords := make(map[vnet.HostID]Coords)
	for h := 0; h < 120; h++ {
		coords[vnet.HostID(h)] = space.Locate(vnet.HostID(h))
	}
	var relErrs []float64
	var sameSiteEst, crossContEst []float64
	for i := 0; i < 120; i++ {
		for j := i + 1; j < 120; j++ {
			a, b := vnet.HostID(i), vnet.HostID(j)
			actual := float64(net.GatewayRTT(a, b)) / float64(time.Millisecond)
			est := coords[a].Dist(coords[b])
			if actual > 1 {
				relErrs = append(relErrs, math.Abs(est-actual)/actual)
			}
			switch {
			case net.Site(a) == net.Site(b):
				sameSiteEst = append(sameSiteEst, est)
			case net.Continent(a) != net.Continent(b):
				crossContEst = append(crossContEst, est)
			}
		}
	}
	med := func(xs []float64) float64 {
		cp := append([]float64(nil), xs...)
		for i := 1; i < len(cp); i++ {
			for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
				cp[j-1], cp[j] = cp[j], cp[j-1]
			}
		}
		return cp[len(cp)/2]
	}
	if m := med(relErrs); m > 0.5 {
		t.Errorf("median relative RTT estimation error %.2f too high", m)
	}
	if len(sameSiteEst) == 0 || len(crossContEst) == 0 {
		t.Skip("degenerate sample")
	}
	if med(sameSiteEst) >= med(crossContEst)/3 {
		t.Errorf("same-site estimate %.1f not well separated from cross-continent %.1f",
			med(sameSiteEst), med(crossContEst))
	}
}

func TestLandmarksAreSpread(t *testing.T) {
	net := planetLab(t, 100)
	space, err := NewSpace(net, Config{Landmarks: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lms := space.Landmarks()
	if len(lms) != 6 {
		t.Fatalf("landmarks = %d", len(lms))
	}
	seen := map[vnet.HostID]bool{}
	for _, l := range lms {
		if seen[l] {
			t.Fatal("duplicate landmark")
		}
		seen[l] = true
	}
	// The k-center heuristic should cover more than one continent.
	continents := map[int]bool{}
	for _, l := range lms {
		continents[net.Continent(l)] = true
	}
	if len(continents) < 2 {
		t.Errorf("landmarks cover %d continents, want >= 2", len(continents))
	}
}

func centralCfg() assign.Config {
	return assign.Config{
		Params: ident.Params{Digits: 4, Base: 64},
		Thresholds: []time.Duration{
			150 * time.Millisecond, 30 * time.Millisecond, 9 * time.Millisecond,
		},
		Percentile:    90,
		CollectTarget: 8,
	}
}

func TestCentralizedAssignerValidation(t *testing.T) {
	net := planetLab(t, 30)
	space, err := NewSpace(net, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := NewCentralizedAssigner(centralCfg(), nil, rng); err == nil {
		t.Error("nil space should fail")
	}
	if _, err := NewCentralizedAssigner(centralCfg(), space, nil); err == nil {
		t.Error("nil rng should fail")
	}
	bad := centralCfg()
	bad.Percentile = 0
	if _, err := NewCentralizedAssigner(bad, space, rng); err == nil {
		t.Error("bad config should fail")
	}
}

// TestCentralizedAssignment: constant probe cost, unique IDs, and
// topology-aware clustering comparable to the distributed protocol.
func TestCentralizedAssignment(t *testing.T) {
	net := planetLab(t, 90)
	space, err := NewSpace(net, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewCentralizedAssigner(centralCfg(), space, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	idOf := make(map[int]ident.ID)
	seen := make(map[ident.ID]bool)
	for h := 1; h < 90; h++ {
		id, st, err := a.AssignID(vnet.HostID(h))
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %v", id)
		}
		seen[id] = true
		idOf[h] = id
		// Constant cost regardless of group size.
		if st.Probes != space.ProbeCount() {
			t.Errorf("host %d probes = %d, want %d", h, st.Probes, space.ProbeCount())
		}
		if st.Messages != 2*space.ProbeCount()+2 {
			t.Errorf("host %d messages = %d", h, st.Messages)
		}
		if st.Queries != 0 {
			t.Errorf("centralized assignment performed %d queries", st.Queries)
		}
	}
	if a.Size() != 89 {
		t.Fatalf("Size = %d, want 89", a.Size())
	}
	// Same-site users share longer prefixes than cross-continent ones.
	var sameSite, crossCont, nSame, nCross float64
	for i := 1; i < 90; i++ {
		for j := i + 1; j < 90; j++ {
			cpl := float64(idOf[i].CommonPrefixLen(idOf[j]))
			switch {
			case net.Site(vnet.HostID(i)) == net.Site(vnet.HostID(j)):
				sameSite += cpl
				nSame++
			case net.Continent(vnet.HostID(i)) != net.Continent(vnet.HostID(j)):
				crossCont += cpl
				nCross++
			}
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Skip("degenerate sample")
	}
	if sameSite/nSame <= crossCont/nCross {
		t.Errorf("centralized assignment not topology-aware: same-site %.2f <= cross %.2f",
			sameSite/nSame, crossCont/nCross)
	}
	// Forget removes members.
	if err := a.Forget(idOf[1]); err != nil {
		t.Fatal(err)
	}
	if err := a.Forget(idOf[1]); err == nil {
		t.Error("double Forget should fail")
	}
	if a.Size() != 88 {
		t.Errorf("Size after Forget = %d", a.Size())
	}
}

func TestEstimateRTTSymmetry(t *testing.T) {
	a := Coords{0, 0, 0}
	b := Coords{3, 4, 0}
	if EstimateRTT(a, b) != EstimateRTT(b, a) {
		t.Error("estimate not symmetric")
	}
	if got := EstimateRTT(a, b); got != 5*time.Millisecond {
		t.Errorf("EstimateRTT = %v, want 5ms", got)
	}
	if EstimateRTT(a, a) != 0 {
		t.Error("self-distance should be zero")
	}
}
