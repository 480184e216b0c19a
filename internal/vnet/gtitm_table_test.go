package vnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// refTree is a shortest-path tree over the whole router graph: the
// reference the per-stub and transit-core tables must reproduce.
type refTree struct {
	dist     []time.Duration
	prevLink []int32
	prevNode []int32
}

type refItem struct {
	node int32
	dist time.Duration
}

type refQueue []refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

func refDijkstra(adj [][]halfEdge, src int32) refTree {
	t := refTree{
		dist:     make([]time.Duration, len(adj)),
		prevLink: make([]int32, len(adj)),
		prevNode: make([]int32, len(adj)),
	}
	for i := range t.dist {
		t.dist[i], t.prevLink[i], t.prevNode[i] = infDur, -1, -1
	}
	t.dist[src] = 0
	q := refQueue{{node: src}}
	for len(q) > 0 {
		it := heap.Pop(&q).(refItem)
		if it.dist > t.dist[it.node] {
			continue
		}
		for _, e := range adj[it.node] {
			if nd := it.dist + e.cost; nd < t.dist[e.to] {
				t.dist[e.to], t.prevLink[e.to], t.prevNode[e.to] = nd, e.link, it.node
				heap.Push(&q, refItem{node: e.to, dist: nd})
			}
		}
	}
	return t
}

// checkAgainstReference compares GatewayRTT, RTT and AppendPathLinks,
// link by link, for every source host at the given stride against every
// host, with whole-graph Dijkstra trees rooted at the source's router.
func checkAgainstReference(t *testing.T, g *GTITM, stride int) {
	t.Helper()
	trees := map[int32]refTree{}
	var got, want []LinkID
	for a := 0; a < g.NumHosts(); a += stride {
		ra := g.hosts[a].router
		tr, ok := trees[ra]
		if !ok {
			tr = refDijkstra(g.adj, ra)
			trees[ra] = tr
		}
		for b := 0; b < g.NumHosts(); b++ {
			ha, hb := HostID(a), HostID(b)
			rb := g.hosts[b].router
			if gw := g.GatewayRTT(ha, hb); gw != tr.dist[rb] {
				t.Fatalf("GatewayRTT(%d,%d) = %v, whole-graph Dijkstra %v", a, b, gw, tr.dist[rb])
			}
			wantRTT := g.hosts[a].access + tr.dist[rb] + g.hosts[b].access
			if a == b {
				wantRTT = 0
			}
			if rtt := g.RTT(ha, hb); rtt != wantRTT {
				t.Fatalf("RTT(%d,%d) = %v, whole-graph Dijkstra %v", a, b, rtt, wantRTT)
			}
			want = want[:0]
			for at := rb; at != ra; at = tr.prevNode[at] {
				want = append(want, LinkID(tr.prevLink[at]))
			}
			got = g.AppendPathLinks(got[:0], ha, hb)
			if len(got) != len(want) {
				t.Fatalf("AppendPathLinks(%d,%d) = %v, whole-graph Dijkstra %v", a, b, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("AppendPathLinks(%d,%d) = %v, whole-graph Dijkstra %v", a, b, got, want)
				}
			}
		}
	}
}

// sim4096Topology is the bench harness's sim_4096 graph.
var sim4096Topology = GTITMConfig{
	TransitDomains: 4, TransitPerDomain: 4, StubsPerTransit: 3,
	TotalRouters: 600, TotalLinks: 1600,
	AccessDelayMin: 500 * time.Microsecond, AccessDelayMax: 5 * time.Millisecond,
}

// TestGTITMMatchesFullGraphDijkstra checks that the transit-stub
// decomposition is exact: every answer equals the whole-graph shortest
// path, distances to the nanosecond and routes link by link in order.
func TestGTITMMatchesFullGraphDijkstra(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    GTITMConfig
		seeds  []int64
		hosts  int
		stride int
	}{
		{"soak", SoakGTITMConfig(), []int64{1, 2, 3, 4, 5}, 240, 1},
		{"sim_4096", sim4096Topology, []int64{1, 2}, 600, 1},
		{"paper", DefaultGTITMConfig(), []int64{1}, 1000, 7},
	} {
		for _, seed := range tc.seeds {
			g, err := NewGTITM(tc.cfg, tc.hosts, seed)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) { checkAgainstReference(t, g, tc.stride) })
		}
	}
}

// TestGTITMStubsDecomposeRTT checks the promise the overlay prunes on:
// for every pair of hosts in different stub domains, RTT is UpRTT +
// CoreRTT + UpRTT to the nanosecond, on the sim_4096 graph and the
// paper's. A delay matrix has no stub domains and must not claim any.
func TestGTITMStubsDecomposeRTT(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   GTITMConfig
		hosts int
	}{
		{"sim_4096", sim4096Topology, 600},
		{"paper", DefaultGTITMConfig(), 600},
	} {
		g, err := NewGTITM(tc.cfg, tc.hosts, 1)
		if err != nil {
			t.Fatal(err)
		}
		var st Stubs = g
		if want := tc.cfg.TransitDomains * tc.cfg.TransitPerDomain * tc.cfg.StubsPerTransit; st.NumStubs() != want {
			t.Fatalf("%s: %d stubs, want %d", tc.name, st.NumStubs(), want)
		}
		pairs := 0
		for a := range HostID(tc.hosts) {
			for b := range a {
				if st.StubOf(a) == st.StubOf(b) {
					continue
				}
				pairs++
				if sum := st.UpRTT(a) + st.CoreRTT(st.StubOf(a), st.StubOf(b)) + st.UpRTT(b); sum != g.RTT(a, b) {
					t.Fatalf("%s: hosts %d, %d: up+core+up = %v, RTT %v", tc.name, a, b, sum, g.RTT(a, b))
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no cross-stub pair; test is vacuous", tc.name)
		}
	}
	p, err := NewPlanetLab(DefaultPlanetLabConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Network(p).(Stubs); ok {
		t.Error("the PlanetLab matrix claims stub domains")
	}
}

// TestGTITMConcurrentReaders reads RTTs and paths from 16 goroutines
// (run under -race by make ci) and checks every answer against the same
// topology queried serially.
func TestGTITMConcurrentReaders(t *testing.T) {
	g, err := NewGTITM(SoakGTITMConfig(), 48, 11)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumHosts()
	want := make([]time.Duration, n*n)
	wantHops := make([]int, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			want[a*n+b] = g.RTT(HostID(a), HostID(b))
			wantHops[a*n+b] = len(g.AppendPathLinks(nil, HostID(a), HostID(b)))
		}
	}
	var mismatches atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var path []LinkID
			for i := 0; i < 2*n; i++ {
				a := (i + w) % n
				for b := 0; b < n; b++ {
					path = g.AppendPathLinks(path[:0], HostID(a), HostID(b))
					if g.RTT(HostID(a), HostID(b)) != want[a*n+b] || len(path) != wantHops[a*n+b] {
						mismatches.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c := mismatches.Load(); c != 0 {
		t.Fatalf("%d concurrent lookups disagreed with the serial answers", c)
	}
}

// TestGTITMRejectsNonTransitStub hand-builds router graphs around two
// transit routers {0,1} and two stubs {2,3} and {4,5}; the tables are
// exact only for transit-stub graphs, so index must refuse the rest.
func TestGTITMRejectsNonTransitStub(t *testing.T) {
	bounds := []int32{2, 4, 6}
	for _, tc := range []struct {
		name  string
		links [][2]int
		err   string // "" when the graph is transit-stub
	}{
		{"transit-stub", [][2]int{{0, 1}, {2, 3}, {3, 0}, {4, 5}, {4, 1}}, ""},
		{"no uplink", [][2]int{{0, 1}, {2, 3}, {3, 0}, {4, 5}}, "stub 1 has 0 uplinks"},
		{"two uplinks", [][2]int{{0, 1}, {2, 3}, {3, 0}, {2, 1}, {4, 5}, {4, 1}}, "stub 0 has 2 uplinks"},
		{"stub to stub", [][2]int{{0, 1}, {2, 3}, {3, 4}, {4, 5}, {4, 1}}, "stub 0 links to router 4"},
		{"disconnected stub", [][2]int{{0, 1}, {3, 0}, {4, 5}, {4, 1}}, "stub 0 is disconnected"},
		{"disconnected core", [][2]int{{2, 3}, {3, 0}, {4, 5}, {4, 1}}, "transit core is disconnected"},
	} {
		g := &GTITM{adj: make([][]halfEdge, 6)}
		for _, l := range tc.links {
			g.addLink(l[0], l[1], time.Millisecond)
		}
		err := g.index(bounds)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
		}
	}
}

// TestGTITMFootprint bounds the topology's live heap at the paper's
// 5000 routers once every host has sourced a probe: the tables are
// all built by NewGTITM, so probing adds nothing. A per-source
// shortest-path tree for every router would be ~80 MB.
func TestGTITMFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := NewGTITM(DefaultGTITMConfig(), 4113, 1)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < g.NumHosts(); h++ {
		g.RTT(HostID(h), HostID((h+1)%g.NumHosts()))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := after.HeapAlloc - before.HeapAlloc
	t.Logf("paper topology, 4113 hosts: %.1f MB live", float64(live)/(1<<20))
	if live > 8<<20 {
		t.Errorf("paper topology holds %d B live, budget 8 MB", live)
	}
	runtime.KeepAlive(g)
}

// TestGTITMLookupsAllocateNothing pins the lookups as table reads.
func TestGTITMLookupsAllocateNothing(t *testing.T) {
	g, err := NewGTITM(SoakGTITMConfig(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]LinkID, 0, g.NumLinks())
	var a, b HostID
	next := func() { a, b = (a+1)%64, (b+7)%64 }
	for name, f := range map[string]func(){
		"RTT":             func() { next(); g.RTT(a, b) },
		"GatewayRTT":      func() { next(); g.GatewayRTT(a, b) },
		"AppendPathLinks": func() { next(); buf = g.AppendPathLinks(buf[:0], a, b) },
	} {
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
}

// BenchmarkGTITMRTT is one RTT between random hosts on the paper's
// topology.
func BenchmarkGTITMRTT(b *testing.B) {
	g, err := NewGTITM(DefaultGTITMConfig(), 4113, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]HostID, 1<<12)
	for i := range pairs {
		pairs[i] = [2]HostID{HostID(rng.Intn(g.NumHosts())), HostID(rng.Intn(g.NumHosts()))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum time.Duration
	for i := 0; i < b.N; i++ {
		p := pairs[i&(len(pairs)-1)]
		sum += g.RTT(p[0], p[1])
	}
	runtime.KeepAlive(sum)
}
