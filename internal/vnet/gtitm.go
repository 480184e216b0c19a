package vnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// GTITMConfig parameterises the transit-stub topology generator. The
// defaults reproduce the paper's setting: "The topology consists of 5000
// routers and 13000 network links" with delay classes
//
//	stub-stub link:                 uniform in [0.1, 1] ms
//	stub-transit link:              uniform in [2, 3] ms
//	transit-transit, same domain:   uniform in [10, 15] ms
//	transit-transit, inter-domain:  uniform in [75, 85] ms
//
// Queueing delay is abstracted away, as in the paper.
type GTITMConfig struct {
	// TransitDomains is the number of top-level transit domains.
	TransitDomains int
	// TransitPerDomain is the number of transit routers per domain.
	TransitPerDomain int
	// StubsPerTransit is the number of stub domains hanging off each
	// transit router.
	StubsPerTransit int
	// TotalRouters is the overall router count; stub routers fill the
	// remainder after transit routers.
	TotalRouters int
	// TotalLinks is the approximate overall link count; extra intra-stub
	// links are added beyond spanning trees to reach it.
	TotalLinks int
	// AccessDelay bounds the per-host access-link RTT (host to its
	// gateway stub router), drawn uniformly from [Min, Max].
	AccessDelayMin, AccessDelayMax time.Duration
	// SPTCacheCap bounds the number of per-source shortest-path trees
	// held in memory at once: 0 means DefaultSPTCacheCap, a negative
	// value means unbounded (the pre-cap behavior), and a positive value
	// is an explicit cap. Each tree costs O(routers), so an unbounded
	// cache quietly materialises all-pairs state as every host sources a
	// multicast at least once; the cap evicts the oldest tree and lets a
	// later request recompute it — results are pure functions of the
	// topology, so eviction never changes an answer.
	SPTCacheCap int
}

// DefaultSPTCacheCap bounds the SPT cache when GTITMConfig.SPTCacheCap
// is zero. At the paper's 5000-router topology a tree is ~80 KB, so the
// default caps cache memory near 80 MB while still covering every
// concurrently active multicast source.
const DefaultSPTCacheCap = 1024

// DefaultGTITMConfig is the paper's topology: 5000 routers, 13000 links.
func DefaultGTITMConfig() GTITMConfig {
	return GTITMConfig{
		TransitDomains:   10,
		TransitPerDomain: 4,
		StubsPerTransit:  3,
		TotalRouters:     5000,
		TotalLinks:       13000,
		AccessDelayMin:   500 * time.Microsecond,
		AccessDelayMax:   5 * time.Millisecond,
	}
}

// SoakGTITMConfig is the small topology the soaks run on, in the
// simulator and over sockets alike: big enough for multi-level RTT
// structure, small enough to build in milliseconds.
func SoakGTITMConfig() GTITMConfig {
	return GTITMConfig{
		TransitDomains:   2,
		TransitPerDomain: 2,
		StubsPerTransit:  2,
		TotalRouters:     120,
		TotalLinks:       300,
		AccessDelayMin:   time.Millisecond,
		AccessDelayMax:   3 * time.Millisecond,
	}
}

func (c GTITMConfig) validate() error {
	switch {
	case c.TransitDomains < 1 || c.TransitPerDomain < 1 || c.StubsPerTransit < 1:
		return fmt.Errorf("vnet: domain counts must be positive: %+v", c)
	case c.TotalRouters <= c.TransitDomains*c.TransitPerDomain:
		return fmt.Errorf("vnet: TotalRouters %d leaves no stub routers", c.TotalRouters)
	case c.AccessDelayMin < 0 || c.AccessDelayMax < c.AccessDelayMin:
		return fmt.Errorf("vnet: bad access delay range [%v, %v]", c.AccessDelayMin, c.AccessDelayMax)
	}
	return nil
}

type halfEdge struct {
	to   int32
	link int32
	cost time.Duration
}

// GTITM is a generated transit-stub router topology with hosts attached to
// uniformly random stub routers. It implements Network.
type GTITM struct {
	cfg      GTITMConfig
	nRouters int
	adj      [][]halfEdge
	nLinks   int

	hostRouter []int32         // gateway router per host
	hostAccess []time.Duration // access-link RTT per host
	stubDomain []int           // stub domain index per router, -1 for transit

	// Shortest-path trees are computed lazily per source router and
	// shared by every concurrent reader. The hit path is lock-free: spts
	// is indexed by source router (sized once, on first use) and each
	// slot is an atomic pointer, so an RTT lookup pays one atomic load
	// and no mutex. mu serialises only installs and evictions; each
	// entry carries its own sync.Once so Dijkstra runs outside the lock,
	// exactly once per live entry, and distinct sources compute in
	// parallel. The cache is bounded by cfg.SPTCacheCap with FIFO
	// eviction (sptOrder lists the resident sources, oldest first);
	// callers holding an evicted entry finish their computation on it
	// safely — the entry just stops being shared.
	sptInit  sync.Once
	spts     []atomic.Pointer[sptEntry]
	mu       sync.Mutex
	sptOrder []int32
}

var _ Network = (*GTITM)(nil)

type spt struct {
	dist     []time.Duration // RTT from source router to each router
	prevLink []int32         // incoming link on the shortest path, -1 at source
	prevNode []int32
}

// sptEntry is one cache slot: once guards the single Dijkstra run that
// fills t, so callers racing on the same source block only on each
// other, not on the whole cache.
type sptEntry struct {
	once sync.Once
	t    *spt
}

// NewGTITM generates a topology with cfg and attaches nHosts hosts, all
// derived deterministically from seed.
func NewGTITM(cfg GTITMConfig, nHosts int, seed int64) (*GTITM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if nHosts < 1 {
		return nil, fmt.Errorf("vnet: need at least one host, got %d", nHosts)
	}
	rng := rand.New(rand.NewSource(seed))

	g := &GTITM{cfg: cfg}
	g.build(rng)
	g.attach(nHosts, rng)
	return g, nil
}

// uniformDelay draws a delay uniformly from [lo, hi] milliseconds.
func uniformDelay(rng *rand.Rand, loMS, hiMS float64) time.Duration {
	ms := loMS + rng.Float64()*(hiMS-loMS)
	return time.Duration(ms * float64(time.Millisecond))
}

func (g *GTITM) addLink(a, b int, cost time.Duration) {
	id := int32(g.nLinks)
	g.nLinks++
	g.adj[a] = append(g.adj[a], halfEdge{to: int32(b), link: id, cost: cost})
	g.adj[b] = append(g.adj[b], halfEdge{to: int32(a), link: id, cost: cost})
}

func (g *GTITM) build(rng *rand.Rand) {
	cfg := g.cfg
	nTransit := cfg.TransitDomains * cfg.TransitPerDomain
	nStubDomains := nTransit * cfg.StubsPerTransit
	nStubRouters := cfg.TotalRouters - nTransit

	g.nRouters = cfg.TotalRouters
	g.adj = make([][]halfEdge, g.nRouters)

	// Routers 0..nTransit-1 are transit; the rest are stub routers.
	// Transit domain d owns routers d*TransitPerDomain .. +TransitPerDomain-1.

	// Intra-domain transit links: a ring plus one chord per domain (or a
	// complete graph for tiny domains), delays U(10,15) ms.
	for d := 0; d < cfg.TransitDomains; d++ {
		base := d * cfg.TransitPerDomain
		n := cfg.TransitPerDomain
		if n == 1 {
			continue
		}
		for i := 0; i < n; i++ {
			g.addLink(base+i, base+(i+1)%n, uniformDelay(rng, 10, 15))
		}
		if n > 3 {
			g.addLink(base, base+n/2, uniformDelay(rng, 10, 15))
		}
	}

	// Inter-domain links: a ring over domains plus a few random chords,
	// delays U(75,85) ms. Endpoints are random routers of each domain.
	pick := func(domain int) int {
		return domain*cfg.TransitPerDomain + rng.Intn(cfg.TransitPerDomain)
	}
	for d := 0; d < cfg.TransitDomains; d++ {
		g.addLink(pick(d), pick((d+1)%cfg.TransitDomains), uniformDelay(rng, 75, 85))
	}
	for i := 0; i < cfg.TransitDomains/2; i++ {
		a, b := rng.Intn(cfg.TransitDomains), rng.Intn(cfg.TransitDomains)
		if a != b {
			g.addLink(pick(a), pick(b), uniformDelay(rng, 75, 85))
		}
	}

	// Stub domains: split the stub routers as evenly as possible across
	// nStubDomains domains.
	stubStart := nTransit
	next := stubStart
	for s := 0; s < nStubDomains; s++ {
		size := nStubRouters / nStubDomains
		if s < nStubRouters%nStubDomains {
			size++
		}
		routers := make([]int, size)
		for i := range routers {
			routers[i] = next
			next++
		}
		// Connected intra-stub graph: random spanning tree, delays
		// U(0.1, 1) ms. Extra densification links come after all stubs
		// are placed, so stub sizes do not bias their spread.
		for i := 1; i < size; i++ {
			g.addLink(routers[i], routers[rng.Intn(i)], uniformDelay(rng, 0.1, 1))
		}
		// Stub-transit link from a random stub router to the owning
		// transit router, delay U(2, 3) ms.
		transit := s / cfg.StubsPerTransit
		g.addLink(routers[rng.Intn(size)], transit, uniformDelay(rng, 2, 3))
	}

	// Densify stubs with extra random intra-stub links to approach the
	// configured total link count.
	domainOf := make([]int, g.nRouters) // stub domain index, -1 for transit
	for r := 0; r < nTransit; r++ {
		domainOf[r] = -1
	}
	next = stubStart
	for s := 0; s < nStubDomains; s++ {
		size := nStubRouters / nStubDomains
		if s < nStubRouters%nStubDomains {
			size++
		}
		for i := 0; i < size; i++ {
			domainOf[next] = s
			next++
		}
	}
	for g.nLinks < g.cfg.TotalLinks {
		a := stubStart + rng.Intn(nStubRouters)
		b := stubStart + rng.Intn(nStubRouters)
		if a == b || domainOf[a] != domainOf[b] {
			continue
		}
		g.addLink(a, b, uniformDelay(rng, 0.1, 1))
	}
	g.stubDomain = domainOf // kept for TransitDomainOf
}

func (g *GTITM) attach(nHosts int, rng *rand.Rand) {
	nTransit := g.cfg.TransitDomains * g.cfg.TransitPerDomain
	g.hostRouter = make([]int32, nHosts)
	g.hostAccess = make([]time.Duration, nHosts)
	span := g.cfg.AccessDelayMax - g.cfg.AccessDelayMin
	for h := 0; h < nHosts; h++ {
		// "Each member is attached to a randomly selected router."
		// Attach to stub routers, as members are edge hosts.
		g.hostRouter[h] = int32(nTransit + rng.Intn(g.nRouters-nTransit))
		g.hostAccess[h] = g.cfg.AccessDelayMin + time.Duration(rng.Int63n(int64(span)+1))
	}
}

// NumHosts implements Network.
func (g *GTITM) NumHosts() int { return len(g.hostRouter) }

// NumRouters returns the number of routers in the topology.
func (g *GTITM) NumRouters() int { return g.nRouters }

// NumLinks implements Network.
func (g *GTITM) NumLinks() int { return g.nLinks }

// AccessRTT implements Network.
func (g *GTITM) AccessRTT(h HostID) time.Duration { return g.hostAccess[h] }

// GatewayRouter returns the router the host attaches to.
func (g *GTITM) GatewayRouter(h HostID) int { return int(g.hostRouter[h]) }

// NumTransitDomains returns the number of top-level transit domains.
func (g *GTITM) NumTransitDomains() int { return g.cfg.TransitDomains }

// TransitDomainOf returns the index of the transit domain the host's
// traffic enters the backbone through: hosts attach to stub routers,
// each stub domain hangs off one transit router, and each transit
// router belongs to one transit domain.
func (g *GTITM) TransitDomainOf(h HostID) int {
	r := int(g.hostRouter[h])
	if s := g.stubDomain[r]; s >= 0 {
		r = s / g.cfg.StubsPerTransit // owning transit router
	}
	return r / g.cfg.TransitPerDomain
}

// RTT implements Network.
func (g *GTITM) RTT(a, b HostID) time.Duration {
	if a == b {
		return 0
	}
	return g.hostAccess[a] + g.GatewayRTT(a, b) + g.hostAccess[b]
}

// OneWay implements Network.
func (g *GTITM) OneWay(a, b HostID) time.Duration { return g.RTT(a, b) / 2 }

// GatewayRTT implements Network.
func (g *GTITM) GatewayRTT(a, b HostID) time.Duration {
	ra, rb := g.hostRouter[a], g.hostRouter[b]
	if ra == rb {
		return 0
	}
	return g.sptFor(ra).dist[rb]
}

// PathLinks implements Network: the router-level shortest path between
// the two hosts' gateways. A disconnected gateway pair (impossible in
// generated topologies, which are connected by construction, but
// reachable through hand-built graphs) yields nil, the interface's
// "no modelled route" value; use PathLinksOK to tell the two apart.
func (g *GTITM) PathLinks(a, b HostID) []LinkID {
	path, _ := g.PathLinksOK(a, b)
	return path
}

// PathLinksOK is PathLinks with an explicit reachability report: ok is
// false when b's gateway router cannot be reached from a's.
func (g *GTITM) PathLinksOK(a, b HostID) ([]LinkID, bool) {
	ra, rb := g.hostRouter[a], g.hostRouter[b]
	if ra == rb {
		return nil, true
	}
	t := g.sptFor(ra)
	if t.prevNode[rb] == -1 {
		return nil, false
	}
	var path []LinkID
	for at := rb; at != ra; at = t.prevNode[at] {
		path = append(path, LinkID(t.prevLink[at]))
	}
	return path, true
}

// sptFor returns the shortest-path tree rooted at src, computing it at
// most once per cache residency. The fast path is one atomic load of
// the source's slot; a miss installs an empty entry under the mutex —
// evicting the oldest entries beyond the cap — and runs Dijkstra under
// the entry's own once, outside the lock. An evicted-while-running
// entry completes for the callers already holding it; a later request
// for that source recomputes, which is safe because trees are pure
// functions of the topology.
func (g *GTITM) sptFor(src int32) *spt {
	g.sptInit.Do(func() { g.spts = make([]atomic.Pointer[sptEntry], g.nRouters) })
	e := g.spts[src].Load()
	if e == nil {
		g.mu.Lock()
		if e = g.spts[src].Load(); e == nil {
			e = &sptEntry{}
			g.spts[src].Store(e)
			g.sptOrder = append(g.sptOrder, src)
			limit := g.cfg.SPTCacheCap // 0 -> default, < 0 -> unbounded
			if limit == 0 {
				limit = DefaultSPTCacheCap
			}
			for limit > 0 && len(g.sptOrder) > limit {
				g.spts[g.sptOrder[0]].Store(nil)
				g.sptOrder = g.sptOrder[1:]
			}
		}
		g.mu.Unlock()
	}
	e.once.Do(func() { e.t = g.dijkstra(src) })
	return e.t
}

type pqItem struct {
	node int32
	dist time.Duration
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

const infDur = time.Duration(1<<63 - 1)

func (g *GTITM) dijkstra(src int32) *spt {
	t := &spt{
		dist:     make([]time.Duration, g.nRouters),
		prevLink: make([]int32, g.nRouters),
		prevNode: make([]int32, g.nRouters),
	}
	for i := range t.dist {
		t.dist[i] = infDur
		t.prevLink[i] = -1
		t.prevNode[i] = -1
	}
	t.dist[src] = 0
	q := pq{{node: src}}
	for len(q) > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > t.dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			nd := it.dist + e.cost
			if nd < t.dist[e.to] {
				t.dist[e.to] = nd
				t.prevLink[e.to] = e.link
				t.prevNode[e.to] = it.node
				heap.Push(&q, pqItem{node: e.to, dist: nd})
			}
		}
	}
	return t
}
