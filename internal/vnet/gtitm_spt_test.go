package vnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGTITMPathLinksDisconnected hand-builds a partitioned router graph:
// generated topologies are connected by construction, but
// AppendPathLinks must not walk off the SPT (prevNode == -1) when fed a
// disconnected pair; it appends nothing, as for a shared gateway.
func TestGTITMPathLinksDisconnected(t *testing.T) {
	// Two components — routers {0,1} and {2,3} — with one host each.
	g := &GTITM{nRouters: 4, adj: make([][]halfEdge, 4)}
	g.addLink(0, 1, time.Millisecond)
	g.addLink(2, 3, 2*time.Millisecond)
	g.hostRouter = []int32{0, 1, 2, 3}
	g.hostAccess = make([]time.Duration, 4)

	if path := g.AppendPathLinks(nil, 0, 1); len(path) != 1 {
		t.Errorf("connected pair (0,1): path %v, want one link", path)
	}
	if path := g.AppendPathLinks(nil, 2, 3); len(path) != 1 {
		t.Errorf("connected pair (2,3): path %v, want one link", path)
	}
	for _, pair := range [][2]HostID{{0, 2}, {2, 0}, {1, 3}, {3, 0}} {
		if path := g.AppendPathLinks(nil, pair[0], pair[1]); path != nil {
			t.Errorf("disconnected pair %v: path %v, want nothing appended", pair, path)
		}
		if g.GatewayRTT(pair[0], pair[1]) != infDur {
			t.Errorf("disconnected pair %v: gateway RTT %v, want unreachable", pair, g.GatewayRTT(pair[0], pair[1]))
		}
	}

	// Hosts sharing a gateway are trivially reachable over an empty path.
	same := &GTITM{nRouters: 1, adj: make([][]halfEdge, 1)}
	same.hostRouter = []int32{0, 0}
	same.hostAccess = make([]time.Duration, 2)
	if path := same.AppendPathLinks(nil, 0, 1); path != nil || same.GatewayRTT(0, 1) != 0 {
		t.Errorf("same-gateway pair: path %v, RTT %v; want nothing, 0", path, same.GatewayRTT(0, 1))
	}
}

// TestGTITMSPTCacheBounded checks the FIFO cap: the cache never exceeds
// the configured size, evicted sources recompute to identical answers,
// and a negative cap restores the unbounded behavior.
func TestGTITMSPTCacheBounded(t *testing.T) {
	cfg := GTITMConfig{
		TransitDomains:   2,
		TransitPerDomain: 2,
		StubsPerTransit:  2,
		TotalRouters:     60,
		TotalLinks:       120,
		AccessDelayMin:   time.Millisecond,
		AccessDelayMax:   2 * time.Millisecond,
		SPTCacheCap:      2,
	}
	g, err := NewGTITM(cfg, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewGTITM(cfg, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumHosts()
	// First pass touches every source, far exceeding the cap; second
	// pass revisits evicted sources. Answers must match an identically
	// seeded reference both times.
	for pass := 0; pass < 2; pass++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				got := g.GatewayRTT(HostID(a), HostID(b))
				want := ref.GatewayRTT(HostID(a), HostID(b))
				if got != want {
					t.Fatalf("pass %d: GatewayRTT(%d,%d) = %v, want %v", pass, a, b, got, want)
				}
			}
			size, order := residentSPTs(g), len(g.sptOrder)
			if size > cfg.SPTCacheCap {
				t.Fatalf("cache holds %d trees, cap %d", size, cfg.SPTCacheCap)
			}
			if size != order {
				t.Fatalf("cache/order out of sync: %d trees, %d order entries", size, order)
			}
		}
	}

	// Unbounded (< 0): every distinct source stays resident.
	cfg.SPTCacheCap = -1
	ub, err := NewGTITM(cfg, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int32]bool{}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			ub.GatewayRTT(HostID(a), HostID(b))
		}
		if r := ub.hostRouter[a]; true {
			distinct[r] = true
		}
	}
	size := residentSPTs(ub)
	// Hosts sharing a gateway with host b==a contribute no tree; every
	// distinct gateway that ever sourced a lookup must still be cached.
	if size < len(distinct)-1 {
		t.Fatalf("unbounded cache holds %d trees for %d distinct gateways", size, len(distinct))
	}
}

// residentSPTs counts the occupied slots of the SPT cache.
func residentSPTs(g *GTITM) int {
	n := 0
	for i := range g.spts {
		if g.spts[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestGTITMSPTCacheEvictingConcurrent reads RTTs from 8 goroutines
// through a cache far smaller than the router count, so lock-free hits
// race installs and evictions of the very slots they load (run under
// -race), and checks every answer against a fresh unbounded instance.
func TestGTITMSPTCacheEvictingConcurrent(t *testing.T) {
	cfg := SoakGTITMConfig()
	cfg.SPTCacheCap = -1
	ref, err := NewGTITM(cfg, 48, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SPTCacheCap = 4
	g, err := NewGTITM(cfg, 48, 11)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumHosts()
	var mismatches atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*n; i++ {
				a := HostID((i*7 + w*5) % n)
				for b := 0; b < n; b++ {
					if g.RTT(a, HostID(b)) != ref.RTT(a, HostID(b)) {
						mismatches.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c := mismatches.Load(); c != 0 {
		t.Fatalf("%d concurrent RTTs disagreed with the unbounded reference", c)
	}
	if got := len(g.sptOrder); got > 4 || got != residentSPTs(g) {
		t.Fatalf("cache holds %d trees (%d order entries), cap 4", residentSPTs(g), got)
	}
}

// TestGTITMSPTCacheConcurrent hammers the lazily filled SPT cache from
// many goroutines (run under -race by make ci) and checks every answer
// against an identically seeded, serially queried topology.
func TestGTITMSPTCacheConcurrent(t *testing.T) {
	g := testGTITM(t, 24)
	ref := testGTITM(t, 24)
	n := g.NumHosts()
	want := make([]time.Duration, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			want[a*n+b] = ref.GatewayRTT(HostID(a), HostID(b))
		}
	}

	var mismatches atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var path []LinkID // one buffer per goroutine
			// Stagger the starting source so goroutines race on
			// different cache entries, not just the first one.
			for i := 0; i < 2*n; i++ {
				a := HostID((i + w) % n)
				for b := 0; b < n; b++ {
					hb := HostID(b)
					if g.GatewayRTT(a, hb) != want[int(a)*n+b] {
						mismatches.Add(1)
					}
					path = g.AppendPathLinks(path[:0], a, hb)
					if g.GatewayRouter(a) != g.GatewayRouter(hb) && len(path) == 0 {
						mismatches.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c := mismatches.Load(); c != 0 {
		t.Fatalf("%d concurrent lookups disagreed with the serial reference", c)
	}
}
