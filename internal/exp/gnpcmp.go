package exp

import (
	"fmt"
	"math/rand"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/gnp"
	"tmesh/internal/ident"
	"tmesh/internal/metrics"
	"tmesh/internal/overlay"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
)

// GNPReport compares one ID-assignment strategy (Section 5's proposed
// GNP optimisation vs the Section 3.1 distributed protocol).
type GNPReport struct {
	Strategy string // "distributed" or "gnp-centralized"
	// JoinMessages summarises per-join protocol messages.
	JoinMessages metrics.Summary
	// JoinProbes summarises per-join RTT measurements.
	JoinProbes metrics.Summary
	// MedianRDP and P95DelayMS measure a rekey multicast over the
	// resulting overlay.
	MedianRDP  float64
	P95DelayMS float64
}

// RunGNPComparison builds the same group twice on the PlanetLab matrix —
// once with the distributed digit-by-digit protocol, once with the
// GNP-based centralized assigner — and reports join cost and resulting
// multicast quality for both.
func RunGNPComparison(joins int, seed int64, cfg assign.Config) ([]GNPReport, error) {
	if joins < 2 {
		return nil, fmt.Errorf("exp: need at least 2 joins, got %d", joins)
	}
	if cfg.Params == (ident.Params{}) {
		cfg = assign.DefaultConfig()
	}
	netCfg := vnet.DefaultPlanetLabConfig()
	if joins+1 > netCfg.Hosts {
		netCfg.Hosts = joins + 1
	}
	net, err := vnet.NewPlanetLab(netCfg, seed)
	if err != nil {
		return nil, err
	}

	// Both strategies build their own directory and RNG over the shared
	// (immutable) delay matrix, so they run concurrently under the
	// package-wide parallelism default.
	strategies := []func() (*GNPReport, error){
		// Strategy 1: the distributed protocol.
		func() (*GNPReport, error) {
			rng := rand.New(rand.NewSource(seed))
			dir, err := overlay.NewDirectory(cfg.Params, 4, net, 0)
			if err != nil {
				return nil, err
			}
			assigner, err := assign.New(cfg, dir, rng)
			if err != nil {
				return nil, err
			}
			return measureStrategy("distributed", dir, joins, func(host vnet.HostID) (ident.ID, assign.Stats, error) {
				return assigner.AssignID(host)
			})
		},
		// Strategy 2: GNP centralized computing at the key server.
		func() (*GNPReport, error) {
			rng := rand.New(rand.NewSource(seed))
			space, err := gnp.NewSpace(net, gnp.Config{Seed: seed})
			if err != nil {
				return nil, err
			}
			central, err := gnp.NewCentralizedAssigner(cfg, space, rng)
			if err != nil {
				return nil, err
			}
			dir, err := overlay.NewDirectory(cfg.Params, 4, net, 0)
			if err != nil {
				return nil, err
			}
			return measureStrategy("gnp-centralized", dir, joins, func(host vnet.HostID) (ident.ID, assign.Stats, error) {
				return central.AssignID(host)
			})
		},
	}
	out := make([]GNPReport, len(strategies))
	err = forEachUnit(len(strategies), nil, func(i int) error {
		rep, err := strategies[i]()
		if err != nil {
			return err
		}
		out[i] = *rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func measureStrategy(name string, dir *overlay.Directory, joins int,
	assignID func(vnet.HostID) (ident.ID, assign.Stats, error)) (*GNPReport, error) {
	var msgs, probes []float64
	for h := 1; h <= joins; h++ {
		host := vnet.HostID(h)
		id, st, err := assignID(host)
		if err != nil {
			return nil, fmt.Errorf("assigning host %d: %w", h, err)
		}
		if err := dir.Join(overlay.Record{Host: host, ID: id, JoinTime: time.Duration(h)}); err != nil {
			return nil, err
		}
		msgs = append(msgs, float64(st.Messages))
		probes = append(probes, float64(st.Probes))
	}
	res, err := tmesh.Multicast(tmesh.Config[int]{Dir: dir}, 1)
	if err != nil {
		return nil, err
	}
	var rdps, delays []float64
	for _, st := range res.Users {
		rdps = append(rdps, st.RDP)
		delays = append(delays, float64(st.Delay)/float64(time.Millisecond))
	}
	return &GNPReport{
		Strategy:     name,
		JoinMessages: metrics.Summarize(metrics.NewDistribution(msgs)),
		JoinProbes:   metrics.Summarize(metrics.NewDistribution(probes)),
		MedianRDP:    metrics.NewDistribution(rdps).Percentile(50),
		P95DelayMS:   metrics.NewDistribution(delays).Percentile(95),
	}, nil
}
