package exp

import (
	"fmt"
	"math/rand"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/metrics"
	"tmesh/internal/vnet"
)

// JoinCostConfig drives the Section 3.1 communication-cost analysis: the
// total number of messages a joining user exchanges while determining
// its ID is O(P·D·N^(1/D)) on average.
type JoinCostConfig struct {
	// GroupSizes are the N values to measure (the cost of joining a
	// group that already has N members).
	GroupSizes []int
	// Samples is the number of join costs averaged per group size.
	Samples int
	// Assign configures the protocol; zero value = paper defaults.
	Assign assign.Config
	Seed   int64
}

// JoinCostPoint is the measured cost at one group size.
type JoinCostPoint struct {
	N        int
	Messages metrics.Summary
	Queries  metrics.Summary
	Probes   metrics.Summary
	// LatencyMS is the wall-clock join duration in milliseconds,
	// replayed from the protocol trace: server contacts and collection
	// queries are sequential round trips; the RTT probes of one digit
	// level run in parallel. Footnote 1 of the paper is about joins
	// that outlast the rekey interval; this measures how long they
	// actually take.
	LatencyMS metrics.Summary
}

// RunJoinCost grows one group through the requested sizes, sampling the
// join cost at each.
func RunJoinCost(cfg JoinCostConfig) ([]JoinCostPoint, error) {
	points, _, err := joinCost(cfg)
	return points, err
}

// joinCost is RunJoinCost, also returning the grown world.
func joinCost(cfg JoinCostConfig) ([]JoinCostPoint, *world, error) {
	if len(cfg.GroupSizes) == 0 {
		return nil, nil, fmt.Errorf("exp: no group sizes")
	}
	if cfg.Samples == 0 {
		cfg.Samples = 8
	}
	maxN := 0
	for i, n := range cfg.GroupSizes {
		if i > 0 && n <= cfg.GroupSizes[i-1] {
			return nil, nil, fmt.Errorf("exp: group sizes must be increasing")
		}
		if n > maxN {
			maxN = n
		}
	}
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), maxN+cfg.Samples+1, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	w, err := newWorld(net, rand.New(rand.NewSource(cfg.Seed)), cfg.Assign, 0)
	if err != nil {
		return nil, nil, err
	}

	var points []JoinCostPoint
	for _, n := range cfg.GroupSizes {
		if err := w.grow(n - w.dir.Size()); err != nil {
			return nil, nil, err
		}
		// Sample: join, measure, leave again (so the group stays at N).
		var msgs, queries, probes, lats []float64
		for s := 0; s < cfg.Samples; s++ {
			rec, st, err := w.join(vnet.HostID(len(w.recs) + 1))
			if err != nil {
				return nil, nil, err
			}
			msgs = append(msgs, float64(st.Messages))
			queries = append(queries, float64(st.Queries))
			probes = append(probes, float64(st.Probes))
			lats = append(lats, float64(JoinLatency(net, rec.Host, st.Trace))/float64(time.Millisecond))
			if err := w.undo(1); err != nil {
				return nil, nil, err
			}
		}
		points = append(points, JoinCostPoint{
			N:         n,
			Messages:  metrics.Summarize(metrics.NewDistribution(msgs)),
			Queries:   metrics.Summarize(metrics.NewDistribution(queries)),
			Probes:    metrics.Summarize(metrics.NewDistribution(probes)),
			LatencyMS: metrics.Summarize(metrics.NewDistribution(lats)),
		})
	}
	return points, w, nil
}

// JoinLatency replays a protocol trace against the network: server
// contacts and collection queries are sequential round trips; the RTT
// probes of one digit level overlap and cost their batch maximum.
func JoinLatency(net vnet.Network, host vnet.HostID, trace []assign.Exchange) time.Duration {
	var total time.Duration
	for i := 0; i < len(trace); {
		e := trace[i]
		if e.Kind != assign.ExchangeProbe {
			total += net.RTT(host, e.Peer)
			i++
			continue
		}
		var batchMax time.Duration
		for i < len(trace) && trace[i].Kind == assign.ExchangeProbe && trace[i].Level == e.Level {
			if r := net.RTT(host, trace[i].Peer); r > batchMax {
				batchMax = r
			}
			i++
		}
		total += batchMax
	}
	return total
}
