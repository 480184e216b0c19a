package assign

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

// stubNet is a controllable delay matrix: RTT between hosts a and b is
// |pos[a]-pos[b]| milliseconds at the gateway level plus 1 ms of access
// per side.
type stubNet struct {
	pos []float64
}

var _ vnet.Network = (*stubNet)(nil)

func (s *stubNet) NumHosts() int { return len(s.pos) }

func (s *stubNet) GatewayRTT(a, b vnet.HostID) time.Duration {
	if a == b {
		return 0
	}
	d := s.pos[a] - s.pos[b]
	if d < 0 {
		d = -d
	}
	return time.Duration(d * float64(time.Millisecond))
}

func (s *stubNet) AccessRTT(vnet.HostID) time.Duration { return time.Millisecond }

func (s *stubNet) RTT(a, b vnet.HostID) time.Duration {
	if a == b {
		return 0
	}
	return s.GatewayRTT(a, b) + 2*time.Millisecond
}

func (s *stubNet) OneWay(a, b vnet.HostID) time.Duration { return s.RTT(a, b) / 2 }
func (s *stubNet) NumLinks() int                         { return 0 }
func (s *stubNet) AppendPathLinks(dst []vnet.LinkID, a, b vnet.HostID) []vnet.LinkID {
	return dst
}

var ap = ident.Params{Digits: 3, Base: 8}

func testConfig() Config {
	return Config{
		Params:        ap,
		Thresholds:    []time.Duration{150 * time.Millisecond, 10 * time.Millisecond},
		Percentile:    90,
		CollectTarget: 3,
	}
}

// newWorld wires a stub network, directory, and assigner.
func newWorld(t *testing.T, pos []float64) (*Assigner, *overlay.Directory) {
	t.Helper()
	net := &stubNet{pos: pos}
	dir, err := overlay.NewDirectory(ap, 2, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(testConfig(), dir, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return a, dir
}

// joinHost admits the host through Join.
func joinHost(t *testing.T, a *Assigner, host int) (ident.ID, Stats) {
	t.Helper()
	rec, st, err := a.Join(vnet.HostID(host), 0)
	if err != nil {
		t.Fatalf("Join(host %d): %v", host, err)
	}
	return rec.ID, st
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Thresholds = bad.Thresholds[:1]
	if err := bad.Validate(); err == nil {
		t.Error("wrong threshold count should fail")
	}
	bad = good
	bad.Thresholds = []time.Duration{time.Second, -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative threshold should fail")
	}
	bad = good
	bad.Percentile = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero percentile should fail")
	}
	bad = good
	bad.Percentile = 101
	if err := bad.Validate(); err == nil {
		t.Error("percentile > 100 should fail")
	}
	bad = good
	bad.CollectTarget = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero collect target should fail")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	if _, err := New(good, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("nil directory should fail")
	}
}

func TestFirstJoinGetsAllZeros(t *testing.T) {
	a, _ := newWorld(t, []float64{0, 1})
	id, st := joinHost(t, a, 1)
	want := ident.MustNew(ap, []ident.Digit{0, 0, 0})
	if !id.Equal(want) {
		t.Errorf("first join ID = %v, want %v", id, want)
	}
	if st.ServerAssigned != ap.Digits {
		t.Errorf("ServerAssigned = %d, want %d", st.ServerAssigned, ap.Digits)
	}
}

// TestJoinAdmitsTheRecord: Join enters the directory the record it
// returns, which carries the given host, the assigned ID and the given
// JoinTime.
func TestJoinAdmitsTheRecord(t *testing.T) {
	a, dir := newWorld(t, []float64{0, 1, 2})
	for _, j := range []struct {
		host vnet.HostID
		at   time.Duration
	}{{1, 5 * time.Second}, {2, 2 * time.Second}} {
		host, at := j.host, j.at
		rec, _, err := a.Join(host, at)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Host != host || rec.JoinTime != at {
			t.Errorf("Join(%d, %v) returned host %d, JoinTime %v", host, at, rec.Host, rec.JoinTime)
		}
		if got, ok := dir.Record(rec.ID); !ok || got != rec {
			t.Errorf("directory holds %+v (present %v) for %v, want %+v", got, ok, rec.ID, rec)
		}
	}
	if dir.Size() != 2 {
		t.Errorf("directory size %d after two joins, want 2", dir.Size())
	}
}

// TestProximityClustering: two tight clusters 100 ms apart (under R_1 =
// 150 ms, over R_2 = 10 ms). All users must share digit 0; cluster
// membership must be readable off digit 1.
func TestProximityClustering(t *testing.T) {
	// Host 0: key server. Hosts 1-5 at ~0 ms; hosts 6-10 at ~100 ms.
	pos := []float64{0, 0, 0.5, 1, 1.5, 2, 100, 100.5, 101, 101.5, 102}
	a, _ := newWorld(t, pos)
	idOf := make(map[int]ident.ID)
	for h := 1; h <= 10; h++ {
		idOf[h], _ = joinHost(t, a, h)
	}
	for h := 2; h <= 10; h++ {
		if idOf[h].Digit(0) != idOf[1].Digit(0) {
			t.Errorf("host %d digit0 = %d, want %d (everyone within R_1)", h, idOf[h].Digit(0), idOf[1].Digit(0))
		}
	}
	// Same cluster -> same digit 1; cross cluster -> different digit 1.
	for h := 2; h <= 5; h++ {
		if idOf[h].Digit(1) != idOf[1].Digit(1) {
			t.Errorf("host %d in cluster A has digit1 %d, want %d", h, idOf[h].Digit(1), idOf[1].Digit(1))
		}
	}
	for h := 7; h <= 10; h++ {
		if idOf[h].Digit(1) != idOf[6].Digit(1) {
			t.Errorf("host %d in cluster B has digit1 %d, want %d", h, idOf[h].Digit(1), idOf[6].Digit(1))
		}
	}
	if idOf[1].Digit(1) == idOf[6].Digit(1) {
		t.Error("clusters A and B (100 ms apart > R_2) must have different digit 1")
	}
	// All IDs unique.
	seen := make(map[string]bool)
	for _, id := range idOf {
		if seen[id.Key()] {
			t.Fatalf("duplicate ID %v", id)
		}
		seen[id.Key()] = true
	}
}

// TestRemoteUserFailsThreshold: a host 400 ms from everyone fails the
// R_1 test and is placed by the server in an exclusive level-1 subtree.
func TestRemoteUserFailsThreshold(t *testing.T) {
	pos := []float64{0, 0, 1, 2, 400}
	a, dir := newWorld(t, pos)
	var groupDigit ident.Digit
	for h := 1; h <= 3; h++ {
		id, _ := joinHost(t, a, h)
		groupDigit = id.Digit(0)
	}
	id, st := joinHost(t, a, 4)
	if id.Digit(0) == groupDigit {
		t.Errorf("remote host shares level-0 digit %d with the near group", id.Digit(0))
	}
	if st.ServerAssigned != ap.Digits {
		t.Errorf("ServerAssigned = %d, want all %d digits", st.ServerAssigned, ap.Digits)
	}
	// The remote user's level-1 subtree holds only itself.
	if got := dir.Tree().SubtreeSize(id.Prefix(1)); got != 1 {
		t.Errorf("remote user's level-1 subtree has %d users, want 1", got)
	}
}

// TestUniquenessUnderChurn: many joins on one site exhaust bottom
// subtrees and exercise the footnote-3 fallback; IDs stay unique.
func TestUniquenessUnderChurn(t *testing.T) {
	n := 120 // capacity is 512; plenty of collisions in proximity space
	pos := make([]float64, n+1)
	for i := range pos {
		pos[i] = float64(i%7) * 0.1 // everyone within a millisecond
	}
	a, dir := newWorld(t, pos)
	seen := make(map[string]bool)
	for h := 1; h <= n; h++ {
		id, _ := joinHost(t, a, h)
		if seen[id.Key()] {
			t.Fatalf("duplicate ID %v for host %d", id, h)
		}
		seen[id.Key()] = true
	}
	if err := dir.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupFull: with a tiny ID space every slot gets used, then the
// next join fails with ErrGroupFull.
func TestGroupFull(t *testing.T) {
	tiny := ident.Params{Digits: 2, Base: 2}
	pos := make([]float64, 7)
	net := &stubNet{pos: pos}
	dir, err := overlay.NewDirectory(tiny, 2, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Params:        tiny,
		Thresholds:    []time.Duration{150 * time.Millisecond},
		Percentile:    90,
		CollectTarget: 2,
	}
	a, err := New(cfg, dir, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= 4; h++ {
		if _, _, err := a.Join(vnet.HostID(h), 0); err != nil {
			t.Fatalf("join %d: %v", h, err)
		}
	}
	size, ids := dir.Size(), dir.IDs()
	if _, _, err := a.Join(5, 0); !errors.Is(err, ErrGroupFull) {
		t.Errorf("5th join err = %v, want ErrGroupFull", err)
	}
	// A refused join admits nobody.
	if dir.Size() != size || !reflect.DeepEqual(dir.IDs(), ids) {
		t.Errorf("refused join changed the directory: size %d -> %d, IDs %v -> %v", size, dir.Size(), ids, dir.IDs())
	}
}

// TestJoinCostSublinear: the message cost of a join grows much slower
// than the group size (O(P·D·N^(1/D)) per the paper's analysis).
func TestJoinCostSublinear(t *testing.T) {
	n := 150
	pos := make([]float64, n+1)
	for i := range pos {
		pos[i] = float64(i) * 0.01
	}
	a, _ := newWorld(t, pos)
	var last Stats
	for h := 1; h <= n; h++ {
		_, last = joinHost(t, a, h)
	}
	if last.Messages == 0 || last.Queries == 0 {
		t.Fatalf("join cost not recorded: %+v", last)
	}
	if last.Messages > n {
		t.Errorf("join into N=%d cost %d messages; want far fewer than N", n, last.Messages)
	}
}

// TestPlanetLabContinentSeparation: with real-ish RTT structure, users on
// the same site share more leading digits on average than users on
// different continents.
func TestPlanetLabContinentSeparation(t *testing.T) {
	pl, err := vnet.NewPlanetLab(vnet.PlanetLabConfig{Hosts: 80, JitterFraction: 0.05}, 5)
	if err != nil {
		t.Fatal(err)
	}
	params := ident.Params{Digits: 4, Base: 64}
	dir, err := overlay.NewDirectory(params, 4, pl, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Params:        params,
		Thresholds:    []time.Duration{150 * time.Millisecond, 30 * time.Millisecond, 9 * time.Millisecond},
		Percentile:    90,
		CollectTarget: 5,
	}
	a, err := New(cfg, dir, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	idOf := make(map[int]ident.ID)
	for h := 1; h < 80; h++ {
		rec, _, err := a.Join(vnet.HostID(h), 0)
		if err != nil {
			t.Fatal(err)
		}
		idOf[h] = rec.ID
	}
	var sameSite, crossCont, nSame, nCross float64
	for i := 1; i < 80; i++ {
		for j := i + 1; j < 80; j++ {
			cpl := float64(idOf[i].CommonPrefixLen(idOf[j]))
			switch {
			case pl.Site(vnet.HostID(i)) == pl.Site(vnet.HostID(j)):
				sameSite += cpl
				nSame++
			case pl.Continent(vnet.HostID(i)) != pl.Continent(vnet.HostID(j)):
				crossCont += cpl
				nCross++
			}
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Skip("degenerate sample")
	}
	if sameSite/nSame <= crossCont/nCross {
		t.Errorf("same-site avg common prefix %.2f <= cross-continent %.2f: assignment is not topology-aware",
			sameSite/nSame, crossCont/nCross)
	}
}

func TestPercentile(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	tests := []struct {
		samples []time.Duration
		f       float64
		want    time.Duration
	}{
		{ms(5), 90, 5 * time.Millisecond},
		{ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 90, 9 * time.Millisecond},
		{ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 100, 10 * time.Millisecond},
		{ms(10, 1), 50, 1 * time.Millisecond},
		{ms(3, 1, 2), 1, 1 * time.Millisecond},
	}
	for _, tt := range tests {
		if got := percentile(tt.samples, tt.f); got != tt.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tt.samples, tt.f, got, tt.want)
		}
	}
}
