package vnet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
	// SPTCacheCap is ignored: the topology caches nothing per source.
	// It goes once the bench harness stops setting it.
	SPTCacheCap int
}

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
	nTransit := c.TransitDomains * c.TransitPerDomain
	switch {
	case c.TransitDomains < 1 || c.TransitPerDomain < 1 || c.StubsPerTransit < 1:
		return fmt.Errorf("vnet: domain counts must be positive: %+v", c)
	case c.TotalRouters-nTransit < nTransit*c.StubsPerTransit:
		return fmt.Errorf("vnet: TotalRouters %d leaves a stub domain without routers", c.TotalRouters)
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
//
// Each stub domain reaches the transit core over exactly one link, so a
// shortest path between two stubs is in-stub to the first one's gateway,
// its uplink, a transit-core path, and the second one's uplink and
// in-stub path. NewGTITM tabulates those parts once: all-pairs paths
// within each stub and within the core, and each host's RTT up to its
// transit router. A GTITM is then immutable and safe for concurrent readers.
type GTITM struct {
	cfg    GTITMConfig
	adj    [][]halfEdge
	nLinks int

	core  block  // the transit routers [0, nT)
	stubs []stub // stub domain s: routers [stubs[s].lo, stubs[s].lo+stubs[s].n)
	hosts []host
}

var (
	_ Network = (*GTITM)(nil)
	_ Stubs   = (*GTITM)(nil)
)

// block is the all-pairs shortest-path table of the routers [lo, lo+n),
// over the links between them alone. Entry i*n+j describes the path from
// router lo+i to router lo+j: its length, and the block-local router and
// the link just before lo+j on it (-1 when i == j).
type block struct {
	lo, n int32
	dist  []time.Duration
	prev  []step
}

type step struct{ node, link int32 }

// stub is one stub domain's table plus its single link to the core.
type stub struct {
	block
	gateway int32 // the stub router the uplink leaves from
	transit int32 // the transit router it reaches
	uplink  int32
	upCost  time.Duration
}

type host struct {
	router, stub, transit int32
	access                time.Duration // access-link RTT
	up                    time.Duration // RTT to the transit router: access + router→gateway + uplink
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
	bounds := g.build(rng)
	if err := g.index(bounds); err != nil {
		return nil, err
	}
	g.attach(nHosts, bounds, rng)
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

// build generates the router graph and returns the stub domains' bounds:
// stub s is routers [bounds[s], bounds[s+1]), and bounds[0] is the
// transit router count.
func (g *GTITM) build(rng *rand.Rand) []int32 {
	cfg := g.cfg
	nTransit := cfg.TransitDomains * cfg.TransitPerDomain
	nStubDomains := nTransit * cfg.StubsPerTransit
	nStubRouters := cfg.TotalRouters - nTransit

	g.adj = make([][]halfEdge, cfg.TotalRouters)

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
	bounds := make([]int32, nStubDomains+1)
	bounds[0] = int32(nTransit)
	domainOf := make([]int32, cfg.TotalRouters) // stub domain per stub router
	for s := 0; s < nStubDomains; s++ {
		size := nStubRouters / nStubDomains
		if s < nStubRouters%nStubDomains {
			size++
		}
		lo := int(bounds[s])
		bounds[s+1] = int32(lo + size)
		for i := 0; i < size; i++ {
			domainOf[lo+i] = int32(s)
		}
		// Connected intra-stub graph: random spanning tree, delays
		// U(0.1, 1) ms. Extra densification links come after all stubs
		// are placed, so stub sizes do not bias their spread.
		for i := 1; i < size; i++ {
			g.addLink(lo+i, lo+rng.Intn(i), uniformDelay(rng, 0.1, 1))
		}
		// Stub-transit link from a random stub router to the owning
		// transit router, delay U(2, 3) ms.
		transit := s / cfg.StubsPerTransit
		g.addLink(lo+rng.Intn(size), transit, uniformDelay(rng, 2, 3))
	}

	// Densify stubs with extra random intra-stub links to approach the
	// configured total link count.
	for g.nLinks < g.cfg.TotalLinks {
		a := nTransit + rng.Intn(nStubRouters)
		b := nTransit + rng.Intn(nStubRouters)
		if a == b || domainOf[a] != domainOf[b] {
			continue
		}
		g.addLink(a, b, uniformDelay(rng, 0.1, 1))
	}
	return bounds
}

// index fills the shortest-path tables, first checking the structure
// they rely on: each stub domain is connected and has exactly one link
// out of it, which reaches a transit router, and the transit core is
// connected over transit-transit links.
func (g *GTITM) index(bounds []int32) error {
	nTransit := bounds[0]
	if !g.core.fill(g.adj, 0, nTransit) {
		return fmt.Errorf("vnet: transit core is disconnected")
	}
	g.stubs = make([]stub, len(bounds)-1)
	for s := range g.stubs {
		st := &g.stubs[s]
		lo, hi := bounds[s], bounds[s+1]
		uplinks := 0
		for r := lo; r < hi; r++ {
			for _, e := range g.adj[r] {
				if e.to >= lo && e.to < hi {
					continue
				}
				if uplinks++; e.to >= nTransit {
					return fmt.Errorf("vnet: stub %d links to router %d, outside the transit core", s, e.to)
				}
				st.gateway, st.transit, st.uplink, st.upCost = r, e.to, e.link, e.cost
			}
		}
		if uplinks != 1 {
			return fmt.Errorf("vnet: stub %d has %d uplinks, want 1", s, uplinks)
		}
		if !st.fill(g.adj, lo, hi) {
			return fmt.Errorf("vnet: stub %d is disconnected", s)
		}
	}
	return nil
}

func (g *GTITM) attach(nHosts int, bounds []int32, rng *rand.Rand) {
	nTransit := int(bounds[0])
	g.hosts = make([]host, nHosts)
	span := g.cfg.AccessDelayMax - g.cfg.AccessDelayMin
	for i := range g.hosts {
		h := &g.hosts[i]
		// "Each member is attached to a randomly selected router."
		// Attach to stub routers, as members are edge hosts.
		h.router = int32(nTransit + rng.Intn(len(g.adj)-nTransit))
		h.access = g.cfg.AccessDelayMin + time.Duration(rng.Int63n(int64(span)+1))
		s := sort.Search(len(g.stubs), func(s int) bool { return bounds[s+1] > h.router })
		st := &g.stubs[s]
		h.stub, h.transit = int32(s), st.transit
		h.up = h.access + st.at(h.router, st.gateway) + st.upCost
	}
}

// NumHosts implements Network.
func (g *GTITM) NumHosts() int { return len(g.hosts) }

// NumRouters returns the number of routers in the topology.
func (g *GTITM) NumRouters() int { return len(g.adj) }

// NumLinks implements Network.
func (g *GTITM) NumLinks() int { return g.nLinks }

// AccessRTT implements Network.
func (g *GTITM) AccessRTT(h HostID) time.Duration { return g.hosts[h].access }

// NumTransitDomains returns the number of top-level transit domains.
func (g *GTITM) NumTransitDomains() int { return g.cfg.TransitDomains }

// TransitDomainOf returns the index of the transit domain the host's
// traffic enters the backbone through: hosts attach to stub routers,
// each stub domain hangs off one transit router, and each transit
// router belongs to one transit domain.
func (g *GTITM) TransitDomainOf(h HostID) int {
	return int(g.hosts[h].transit) / g.cfg.TransitPerDomain
}

// RTT implements Network.
func (g *GTITM) RTT(a, b HostID) time.Duration {
	if a == b {
		return 0
	}
	ha, hb := &g.hosts[a], &g.hosts[b]
	if ha.stub == hb.stub {
		return ha.access + g.stubs[ha.stub].at(ha.router, hb.router) + hb.access
	}
	return ha.up + g.core.at(ha.transit, hb.transit) + hb.up
}

// NumStubs implements Stubs.
func (g *GTITM) NumStubs() int { return len(g.stubs) }

// StubOf implements Stubs.
func (g *GTITM) StubOf(h HostID) int { return int(g.hosts[h].stub) }

// UpRTT implements Stubs.
func (g *GTITM) UpRTT(h HostID) time.Duration { return g.hosts[h].up }

// CoreRTT implements Stubs.
func (g *GTITM) CoreRTT(s, t int) time.Duration {
	return g.core.at(g.stubs[s].transit, g.stubs[t].transit)
}

// OneWay implements Network.
func (g *GTITM) OneWay(a, b HostID) time.Duration { return g.RTT(a, b) / 2 }

// GatewayRTT implements Network.
func (g *GTITM) GatewayRTT(a, b HostID) time.Duration {
	ha, hb := &g.hosts[a], &g.hosts[b]
	if ha.stub == hb.stub {
		return g.stubs[ha.stub].at(ha.router, hb.router)
	}
	return ha.up - ha.access + g.core.at(ha.transit, hb.transit) + hb.up - hb.access
}

// AppendPathLinks implements Network: the router-level shortest path
// between the two hosts' gateways, appended from b's gateway back to
// a's. Hosts sharing a gateway append nothing.
func (g *GTITM) AppendPathLinks(dst []LinkID, a, b HostID) []LinkID {
	ha, hb := &g.hosts[a], &g.hosts[b]
	if ha.stub == hb.stub {
		return g.stubs[ha.stub].appendPath(dst, ha.router, hb.router)
	}
	sa, sb := &g.stubs[ha.stub], &g.stubs[hb.stub]
	dst = sb.appendPath(dst, sb.gateway, hb.router)
	dst = append(dst, LinkID(sb.uplink))
	dst = g.core.appendPath(dst, ha.transit, hb.transit)
	dst = append(dst, LinkID(sa.uplink))
	return sa.appendPath(dst, ha.router, sa.gateway)
}

// at returns the shortest-path length between routers from and to.
func (b *block) at(from, to int32) time.Duration {
	return b.dist[(from-b.lo)*b.n+to-b.lo]
}

// appendPath appends the links of the shortest path from router from to
// router to, walked from to back to from.
func (b *block) appendPath(dst []LinkID, from, to int32) []LinkID {
	row, i, j := (from-b.lo)*b.n, to-b.lo, from-b.lo
	for i != j {
		p := b.prev[row+i]
		dst = append(dst, LinkID(p.link))
		i = p.node
	}
	return dst
}

const infDur = time.Duration(1<<63 - 1)

// fill sets b to the all-pairs table of routers [lo, hi), running
// Dijkstra from each over the links that stay inside the range; blocks
// are a stub domain or the transit core, tens of routers, so each run
// scans for its next router instead of keeping a heap. It reports
// whether every router reaches every other.
func (b *block) fill(adj [][]halfEdge, lo, hi int32) bool {
	n := hi - lo
	*b = block{lo: lo, n: n, dist: make([]time.Duration, n*n), prev: make([]step, n*n)}
	done := make([]bool, n)
	for src := int32(0); src < n; src++ {
		dist, prev := b.dist[src*n:(src+1)*n], b.prev[src*n:(src+1)*n]
		for i := range dist {
			dist[i], prev[i], done[i] = infDur, step{-1, -1}, false
		}
		dist[src] = 0
		for {
			u := int32(-1)
			for v, d := range dist {
				if !done[v] && d < infDur && (u < 0 || d < dist[u]) {
					u = int32(v)
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			for _, e := range adj[lo+u] {
				if v := e.to - lo; v >= 0 && v < n && dist[u]+e.cost < dist[v] {
					dist[v], prev[v] = dist[u]+e.cost, step{u, e.link}
				}
			}
		}
		if slices.Contains(dist, infDur) {
			return false
		}
	}
	return true
}
