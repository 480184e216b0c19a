package vnet

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// PlanetLabConfig parameterises the synthetic PlanetLab RTT matrix. The
// defaults approximate the authors' measurement of 227 PlanetLab hosts
// spread over North America, Europe, Asia, and Australia: a metric 2-D
// embedding of continents and sites plus per-host access latency and
// measurement jitter. The *structure* (same-site ≪ same-continent ≪
// cross-continent RTTs) is what the paper's mechanisms depend on; see
// DESIGN.md for the substitution rationale.
type PlanetLabConfig struct {
	// Hosts is the number of end hosts in the matrix.
	Hosts int
	// JitterFraction perturbs each pairwise RTT multiplicatively by
	// U(1-j, 1+j), modelling single-probe measurement noise.
	JitterFraction float64
}

// DefaultPlanetLabConfig matches the paper's 227-host measurement set.
func DefaultPlanetLabConfig() PlanetLabConfig {
	return PlanetLabConfig{Hosts: 227, JitterFraction: 0.05}
}

// continent describes one region of the embedding. Coordinates are in
// "RTT milliseconds": the Euclidean distance between two points is the
// router-level RTT between them.
type continent struct {
	name       string
	weight     float64 // fraction of hosts
	x, y       float64 // centre
	siteRadius float64 // spread of sites around the centre
	hostRadius float64 // spread of hosts around their site
	avgSite    int     // average hosts per site
}

// planetLabContinents places NA, EU, Asia, and AU so that cross-continent
// RTTs land in realistic bands (NA-EU ≈ 90 ms, NA-Asia ≈ 150 ms,
// AU far from everything), with PlanetLab-like host proportions (PlanetLab
// was dominated by North American .edu sites in 2004).
var planetLabContinents = []continent{
	{name: "north-america", weight: 0.55, x: 0, y: 0, siteRadius: 25, hostRadius: 2, avgSite: 6},
	{name: "europe", weight: 0.25, x: 90, y: 0, siteRadius: 12, hostRadius: 2, avgSite: 5},
	{name: "asia", weight: 0.15, x: 60, y: 140, siteRadius: 25, hostRadius: 2, avgSite: 5},
	{name: "australia", weight: 0.05, x: 160, y: 200, siteRadius: 8, hostRadius: 2, avgSite: 4},
}

// PlanetLab is a synthetic host-to-host RTT matrix with no modelled router
// graph. It implements Network; AppendPathLinks appends nothing and
// NumLinks is zero.
type PlanetLab struct {
	rtt       [][]time.Duration
	access    []time.Duration
	continent []int
	site      []int
}

var _ Network = (*PlanetLab)(nil)

// NewPlanetLab builds the matrix deterministically from seed.
func NewPlanetLab(cfg PlanetLabConfig, seed int64) (*PlanetLab, error) {
	if cfg.Hosts < 2 {
		return nil, fmt.Errorf("vnet: PlanetLab needs >= 2 hosts, got %d", cfg.Hosts)
	}
	if cfg.JitterFraction < 0 || cfg.JitterFraction >= 1 {
		return nil, fmt.Errorf("vnet: JitterFraction %v out of [0,1)", cfg.JitterFraction)
	}
	rng := rand.New(rand.NewSource(seed))

	n := cfg.Hosts
	p := &PlanetLab{
		access:    make([]time.Duration, n),
		continent: make([]int, n),
		site:      make([]int, n),
	}

	// Assign hosts to continents by weight, largest first so rounding
	// residue lands in the last continent.
	xs := make([]float64, n)
	ys := make([]float64, n)
	host := 0
	siteID := 0
	for ci, c := range planetLabContinents {
		count := int(math.Round(c.weight * float64(n)))
		if ci == len(planetLabContinents)-1 {
			count = n - host
		}
		for count > 0 {
			// One site of avgSite ± half hosts.
			sz := c.avgSite/2 + 1 + rng.Intn(c.avgSite)
			if sz > count {
				sz = count
			}
			sx := c.x + rng.NormFloat64()*c.siteRadius
			sy := c.y + rng.NormFloat64()*c.siteRadius
			for i := 0; i < sz; i++ {
				xs[host] = sx + rng.NormFloat64()*c.hostRadius
				ys[host] = sy + rng.NormFloat64()*c.hostRadius
				p.continent[host] = ci
				p.site[host] = siteID
				// Access-link RTT: 0.5–6 ms, a few hosts with slow
				// (DSL-like) links.
				acc := 0.5 + rng.Float64()*5.5
				if rng.Float64() < 0.05 {
					acc += 10 + rng.Float64()*20
				}
				p.access[host] = time.Duration(acc * float64(time.Millisecond))
				host++
			}
			siteID++
			count -= sz
		}
	}

	// Pairwise RTT = gateway distance + both access links, jittered.
	p.rtt = make([][]time.Duration, n)
	for i := range p.rtt {
		p.rtt[i] = make([]time.Duration, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			gw := math.Sqrt(dx*dx+dy*dy) + 0.2 // ≥0.2 ms between distinct gateways
			jitter := 1 + (rng.Float64()*2-1)*cfg.JitterFraction
			d := time.Duration(gw*jitter*float64(time.Millisecond)) + p.access[i] + p.access[j]
			p.rtt[i][j] = d
			p.rtt[j][i] = d
		}
	}
	return p, nil
}

// NumHosts implements Network.
func (p *PlanetLab) NumHosts() int { return len(p.access) }

// RTT implements Network.
func (p *PlanetLab) RTT(a, b HostID) time.Duration { return p.rtt[a][b] }

// OneWay implements Network.
func (p *PlanetLab) OneWay(a, b HostID) time.Duration { return p.rtt[a][b] / 2 }

// AccessRTT implements Network.
func (p *PlanetLab) AccessRTT(h HostID) time.Duration { return p.access[h] }

// GatewayRTT implements Network.
func (p *PlanetLab) GatewayRTT(a, b HostID) time.Duration {
	if a == b {
		return 0
	}
	return clampRTT(p.rtt[a][b] - p.access[a] - p.access[b])
}

// NumLinks implements Network. PlanetLab is a pure delay matrix.
func (p *PlanetLab) NumLinks() int { return 0 }

// AppendPathLinks implements Network; the PlanetLab matrix has no router
// graph, so it appends nothing.
func (p *PlanetLab) AppendPathLinks(dst []LinkID, a, b HostID) []LinkID { return dst }

// Continent returns the continent index of a host (for tests and
// diagnostics).
func (p *PlanetLab) Continent(h HostID) int { return p.continent[h] }

// Site returns the site index of a host.
func (p *PlanetLab) Site(h HostID) int { return p.site[h] }

// ContinentName returns a human-readable continent name.
func ContinentName(i int) string { return planetLabContinents[i].name }
