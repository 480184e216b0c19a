package exp

import (
	"fmt"
	"math/rand"
	"time"

	"tmesh/internal/eventsim"
	"tmesh/internal/recovery"
	"tmesh/internal/vnet"
)

// LossPoint is one loss rate of the recovery sweep.
type LossPoint struct {
	// LossRate is the per-hop drop probability of the multicast.
	LossRate float64
	// RecoveredFraction is the share of users that fell back to server
	// unicast recovery.
	RecoveredFraction float64
	// ServerUnits is the total encryptions the server unicast.
	ServerUnits int
	// ServerUnitsPerRecovered is the average recovery cost per affected
	// user (bounded by the key-path length D+1).
	ServerUnitsPerRecovered float64
	// HopsDropped is the number of multicast hops lost.
	HopsDropped int
}

// RunLossSweep measures unicast recovery (footnote 1 / [31]) under
// increasing per-hop loss: one group, one churn interval, the same rekey
// message distributed at each loss rate.
func RunLossSweep(cfg AblationConfig, lossRates []float64) ([]LossPoint, error) {
	for _, p := range lossRates {
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("exp: loss rate %v out of [0, 1)", p)
		}
	}
	g, err := newChurnGroup(cfg.Assign, cfg.K, cfg.Seed, cfg.N, 0, "loss")
	if err != nil {
		return nil, err
	}
	nLeave := cfg.ChurnLeaves
	if nLeave == 0 {
		nLeave = cfg.N / 8
	}
	msg, err := g.churn(nLeave)
	if err != nil {
		return nil, err
	}

	// Each loss rate derives its own drop RNG from the configured seed
	// and only reads the churned group, so the rates run concurrently.
	out := make([]LossPoint, len(lossRates))
	err = forEachUnit(len(lossRates), cfg.Progress, func(i int) error {
		p := lossRates[i]
		lossRng := rand.New(rand.NewSource(cfg.Seed ^ int64(p*1e6) ^ 0x5bd1e995))
		var drop func(from, to vnet.HostID) bool
		if p > 0 {
			drop = func(from, to vnet.HostID) bool { return lossRng.Float64() < p }
		}
		// Plain limited unicast recovery is the ladder with one
		// lossless unicast rung, on a simulator of its own.
		sim := eventsim.New()
		res, err := recovery.DistributeLadder(recovery.LadderConfig{
			Dir:     g.dir,
			Sim:     sim,
			Policy:  recovery.Policy{Timeout: time.Second, RetryBase: time.Second, RetryMax: time.Second, RetryBudget: 1},
			DropHop: drop,
		}, msg)
		if err != nil {
			return err
		}
		sim.Run()
		res.Finish()
		pt := LossPoint{
			LossRate:    p,
			ServerUnits: res.ServerUnits,
			HopsDropped: res.Multicast.Dropped,
		}
		if n := g.dir.Size(); n > 0 {
			pt.RecoveredFraction = float64(len(res.Recovered)) / float64(n)
		}
		if len(res.Recovered) > 0 {
			pt.ServerUnitsPerRecovered = float64(res.ServerUnits) / float64(len(res.Recovered))
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
