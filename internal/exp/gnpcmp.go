package exp

import (
	"fmt"
	"math/rand"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/gnp"
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
	net, err := buildNetwork(PlanetLab, joins+1, seed)
	if err != nil {
		return nil, err
	}

	// Both strategies build their own directory and RNG over the shared
	// (immutable) delay matrix, so they run concurrently under the
	// package-wide parallelism default.
	strategies := []struct {
		name  string
		build func(vnet.Network, int, int64, assign.Config) (*overlay.Directory, []assign.Stats, error)
	}{
		{"distributed", distributedWorld},
		{"gnp-centralized", centralizedWorld},
	}
	out := make([]GNPReport, len(strategies))
	err = forEachUnit(len(strategies), nil, func(i int) error {
		dir, stats, err := strategies[i].build(net, joins, seed, cfg)
		if err != nil {
			return err
		}
		rep, err := measureStrategy(strategies[i].name, dir, stats)
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

// distributedWorld admits hosts 1..joins through the Section 3.1
// protocol and returns the directory and every join's cost.
func distributedWorld(net vnet.Network, joins int, seed int64, cfg assign.Config) (*overlay.Directory, []assign.Stats, error) {
	w, err := newWorld(net, rand.New(rand.NewSource(seed)), cfg, 0)
	if err != nil {
		return nil, nil, err
	}
	stats := make([]assign.Stats, joins)
	for h := 1; h <= joins; h++ {
		if _, stats[h-1], err = w.join(vnet.HostID(h)); err != nil {
			return nil, nil, err
		}
	}
	return w.dir, stats, nil
}

// centralizedWorld admits hosts 1..joins with the GNP-based centralized
// assigner and returns its directory and every join's cost. It builds
// its own directory because its IDs come from GNP coordinates, not from
// Section 3.1; nothing here reads JoinTime, so it stamps none.
func centralizedWorld(net vnet.Network, joins int, seed int64, cfg assign.Config) (*overlay.Directory, []assign.Stats, error) {
	cfg, k := paperConfig(cfg, 0)
	rng := rand.New(rand.NewSource(seed))
	space, err := gnp.NewSpace(net, gnp.Config{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	central, err := gnp.NewCentralizedAssigner(cfg, space, rng)
	if err != nil {
		return nil, nil, err
	}
	dir, err := overlay.NewDirectory(cfg.Params, k, net, 0)
	if err != nil {
		return nil, nil, err
	}
	stats := make([]assign.Stats, joins)
	for h := 1; h <= joins; h++ {
		host := vnet.HostID(h)
		id, st, err := central.AssignID(host)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: assigning host %d: %w", h, err)
		}
		if err := dir.Join(overlay.Record{Host: host, ID: id}); err != nil {
			return nil, nil, err
		}
		stats[h-1] = st
	}
	return dir, stats, nil
}

// measureStrategy reports one strategy's join costs and a rekey
// multicast over the directory it built.
func measureStrategy(name string, dir *overlay.Directory, stats []assign.Stats) (*GNPReport, error) {
	var msgs, probes []float64
	for _, st := range stats {
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
