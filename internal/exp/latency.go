// Package exp contains the experiment harness that regenerates every
// figure of the paper's evaluation (Section 4):
//
//	Figs. 6-8   rekey path latency, T-mesh vs NICE (PlanetLab / GT-ITM)
//	Figs. 9-11  data path latency, T-mesh vs NICE
//	Fig. 12     rekey cost of modified vs original key tree (a-c)
//	Fig. 13     rekey bandwidth overhead of protocols P0..P_ip (a-c)
//	Fig. 14     T-mesh latency vs delay-threshold choices
//	Sec. 3.1    join message cost scaling O(P·D·N^(1/D))
//
// Each runner builds the full system — network, ID assignment, neighbor
// tables, key trees, baselines — and returns the same series the paper
// plots. Absolute values differ from the paper (the PlanetLab matrix is
// synthetic); the comparisons and orders of magnitude are the
// reproduction target (see EXPERIMENTS.md).
package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/ident"
	"tmesh/internal/metrics"
	"tmesh/internal/nice"
	"tmesh/internal/overlay"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
)

// TopologyKind selects the simulation network.
type TopologyKind string

const (
	// PlanetLab is the synthetic 227-host RTT matrix.
	PlanetLab TopologyKind = "planetlab"
	// GTITM is the 5000-router transit-stub topology.
	GTITM TopologyKind = "gtitm"
)

// LatencyConfig drives Figs. 6-11 and 14.
type LatencyConfig struct {
	Topology TopologyKind
	// Joins is the number of users (226 for PlanetLab, 256/1024 for
	// GT-ITM in the paper).
	Joins int
	// Runs is the number of simulation runs aggregated rank-wise (the
	// paper uses 100 for Fig. 6).
	Runs int
	// DataTransport selects Figs. 9-11: a random user multicasts
	// instead of the key server.
	DataTransport bool
	// Assign configures the ID space and thresholds (Fig. 14 varies
	// this); zero value = paper defaults.
	Assign assign.Config
	// K is the neighbor-table redundancy (paper: 4).
	K int
	// Points is the number of inverse-CDF points to emit (<= Joins).
	Points int
	// SkipNICE omits the NICE baseline (Fig. 14 plots T-mesh only).
	SkipNICE bool
	Seed     int64
	// Progress, when non-nil, receives each run's index and wall-clock
	// duration as it completes. Calls are serialised.
	Progress Progress
}

// LatencySeries is one protocol's three inverse-CDF curves.
type LatencySeries struct {
	Protocol string
	Stress   []metrics.InverseCDFPoint
	DelayMS  []metrics.InverseCDFPoint
	RDP      []metrics.InverseCDFPoint
}

// LatencyResult is the outcome of one latency experiment.
type LatencyResult struct {
	Config LatencyConfig
	Series []LatencySeries
	// Headlines are the prose-style summaries (fraction of users with
	// RDP below 2 and 3, median delays) the paper quotes.
	Headlines map[string]string
}

func (c *LatencyConfig) setDefaults() {
	if c.Runs == 0 {
		c.Runs = 1
	}
	if c.Points == 0 {
		c.Points = 50
	}
}

func buildNetwork(kind TopologyKind, hosts int, seed int64) (vnet.Network, error) {
	switch kind {
	case PlanetLab:
		cfg := vnet.DefaultPlanetLabConfig()
		if hosts > cfg.Hosts {
			cfg.Hosts = hosts
		}
		return vnet.NewPlanetLab(cfg, seed)
	case GTITM:
		// The paper's fixed 5000-router topology accommodates every
		// group size used by the evaluation; hosts only sets how many
		// end hosts attach to it.
		return vnet.NewGTITM(vnet.DefaultGTITMConfig(), hosts, seed)
	default:
		return nil, fmt.Errorf("exp: unknown topology %q", kind)
	}
}

// latencyWorld builds one run's T-mesh world from its run-derived seed:
// users occupy hosts 1..Joins (host 0 is the key server) and join in a
// random order per run ("for each run we changed user joining times").
// It returns the world and that join order.
func latencyWorld(cfg LatencyConfig, run int) (*world, []vnet.HostID, error) {
	seed := cfg.Seed + int64(run)*7919
	rng := rand.New(rand.NewSource(seed))
	net, err := buildNetwork(cfg.Topology, cfg.Joins+1, seed)
	if err != nil {
		return nil, nil, err
	}
	order := make([]vnet.HostID, cfg.Joins)
	for i := range order {
		order[i] = vnet.HostID(i + 1)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	w, err := newWorld(net, rng, cfg.Assign, cfg.K)
	if err != nil {
		return nil, nil, err
	}
	for _, host := range order {
		if _, _, err := w.join(host); err != nil {
			return nil, nil, err
		}
	}
	return w, order, nil
}

// RunLatency executes one of Figs. 6-11/14. Runs execute concurrently
// (forEachUnit); each run derives every random choice from its own seed
// (Seed + run*7919), and per-run results are merged in run order, so
// the output is identical to a sequential execution.
func RunLatency(cfg LatencyConfig) (*LatencyResult, error) {
	cfg.setDefaults()
	if cfg.Joins < 2 {
		return nil, fmt.Errorf("exp: need at least 2 joins, got %d", cfg.Joins)
	}

	tmeshRuns := make([]runDists, cfg.Runs)
	niceRuns := make([]runDists, cfg.Runs)
	err := forEachUnit(cfg.Runs, cfg.Progress, func(run int) error {
		tm, nc, err := runLatencyOnce(cfg, run)
		if err != nil {
			return err
		}
		tmeshRuns[run] = tm
		niceRuns[run] = nc
		return nil
	})
	if err != nil {
		return nil, err
	}

	result := &LatencyResult{Config: cfg, Headlines: make(map[string]string)}
	emit := func(name string, runs []runDists) error {
		stress := make([]*metrics.Distribution, len(runs))
		delay := make([]*metrics.Distribution, len(runs))
		rdp := make([]*metrics.Distribution, len(runs))
		for i, r := range runs {
			stress[i], delay[i], rdp[i] = r.stress, r.delay, r.rdp
		}
		s, err := metrics.RankAggregate(stress, cfg.Points)
		if err != nil {
			return err
		}
		d, err := metrics.RankAggregate(delay, cfg.Points)
		if err != nil {
			return err
		}
		r, err := metrics.RankAggregate(rdp, cfg.Points)
		if err != nil {
			return err
		}
		result.Series = append(result.Series, LatencySeries{Protocol: name, Stress: s, DelayMS: d, RDP: r})
		// Headline: pool all runs' RDPs.
		var all []float64
		for _, run := range runs {
			all = append(all, run.rdp.Sorted()...)
		}
		pool := metrics.NewDistribution(all)
		result.Headlines[name] = fmt.Sprintf(
			"%s: %.0f%% of users have RDP<2, %.0f%% RDP<3; median delay %.1f ms",
			name, 100*pool.FractionAtMost(2), 100*pool.FractionAtMost(3),
			metrics.Summarize(poolDelay(runs)).Median)
		return nil
	}
	if err := emit("T-mesh", tmeshRuns); err != nil {
		return nil, err
	}
	if !cfg.SkipNICE {
		if err := emit("NICE", niceRuns); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// runLatencyOnce executes one fully independent simulation run: it
// builds its own network, overlay, and baselines from the run-derived
// seed and returns the T-mesh (and, unless SkipNICE, NICE)
// distributions. It shares no mutable state with other runs, which is
// what makes RunLatency's fan-out safe.
func runLatencyOnce(cfg LatencyConfig, run int) (tm, nc runDists, err error) {
	w, order, err := latencyWorld(cfg, run)
	if err != nil {
		return tm, nc, err
	}
	var senderID ident.ID // zero: the key server sends
	senderHost := vnet.HostID(0)
	if cfg.DataTransport {
		pick := w.recs[w.rng.Intn(len(w.recs))]
		senderID, senderHost = pick.ID, pick.Host
	}
	res, err := tmesh.Multicast(tmesh.Config[int]{Dir: w.dir, SenderID: senderID}, 1)
	if err != nil {
		return tm, nc, err
	}
	tm = collectTmesh(res, w.recs, senderID, cfg.DataTransport)

	if !cfg.SkipNICE {
		np, err := nice.New(w.net, nice.DefaultK)
		if err != nil {
			return tm, nc, err
		}
		// Same join order, sequential joins as in the paper. NICE
		// keeps its own code: it places users by host, not by ID.
		for _, h := range order {
			if err := np.Join(h); err != nil {
				return tm, nc, err
			}
		}
		nres, err := np.Multicast(senderHost, nice.Options{
			FromServer: !cfg.DataTransport,
			ServerHost: 0,
		})
		if err != nil {
			return tm, nc, err
		}
		nc = collectNICE(nres, order, senderHost, !cfg.DataTransport)
	}
	return tm, nc, nil
}

// runDists bundles one run's three distributions.
type runDists struct{ stress, delay, rdp *metrics.Distribution }

func poolDelay(runs []runDists) *metrics.Distribution {
	var all []float64
	for _, r := range runs {
		all = append(all, r.delay.Sorted()...)
	}
	return metrics.NewDistribution(all)
}

// collectTmesh gathers one run's distributions. senderIsUser states
// explicitly whether the sender is a group member (data transport)
// rather than inferring it from the ID value: every ID — including the
// all-zero one — is legitimately assignable to a user, so an ID
// sentinel would miscount samples for whichever user holds it. The
// sender's delay/RDP slot is padded with zeros at its rank position (as
// collectNICE does) so all runs have equal sample counts.
func collectTmesh(res *tmesh.Result, recs []overlay.Record, senderID ident.ID, senderIsUser bool) runDists {
	var stress, delay, rdp []float64
	for _, rec := range recs {
		st := res.Users[rec.ID]
		if st == nil {
			st = &tmesh.UserStats{}
		}
		stress = append(stress, float64(st.Stress))
		if senderIsUser && rec.ID.Equal(senderID) {
			delay = append(delay, 0) // the sender has no delivery delay
			rdp = append(rdp, 0)
			continue
		}
		delay = append(delay, float64(st.Delay)/float64(time.Millisecond))
		rdp = append(rdp, st.RDP)
	}
	return runDists{
		metrics.NewDistribution(stress), metrics.NewDistribution(delay), metrics.NewDistribution(rdp),
	}
}

func collectNICE(res *nice.Result, order []vnet.HostID, sender vnet.HostID, fromServer bool) runDists {
	var stress, delay, rdp []float64
	hosts := append([]vnet.HostID(nil), order...)
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, h := range hosts {
		st := res.Members[h]
		if st == nil {
			st = &nice.Stats{}
		}
		stress = append(stress, float64(st.Stress))
		if !fromServer && h == sender {
			delay = append(delay, 0)
			rdp = append(rdp, 0)
			continue
		}
		delay = append(delay, float64(st.Delay)/float64(time.Millisecond))
		rdp = append(rdp, st.RDP)
	}
	return runDists{
		metrics.NewDistribution(stress), metrics.NewDistribution(delay), metrics.NewDistribution(rdp),
	}
}

// ThresholdVariant is one curve of Fig. 14: an ID-space depth D with its
// delay threshold vector.
type ThresholdVariant struct {
	Name       string
	Digits     int
	Base       int
	Thresholds []time.Duration
}

// latencyConfig is the variant's T-mesh-only PlanetLab latency run.
func (v ThresholdVariant) latencyConfig(joins, runs int, seed int64) LatencyConfig {
	return LatencyConfig{
		Topology: PlanetLab,
		Joins:    joins,
		Runs:     runs,
		Seed:     seed,
		SkipNICE: true,
		Assign: assign.Config{
			Params:        ident.Params{Digits: v.Digits, Base: v.Base},
			Thresholds:    v.Thresholds,
			Percentile:    90,
			CollectTarget: 10,
		},
	}
}

// PaperThresholdVariants returns the Fig. 14 parameter sets.
func PaperThresholdVariants() []ThresholdVariant {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	return []ThresholdVariant{
		{Name: "(150,30,9,3) D=5", Digits: 5, Base: 256, Thresholds: ms(150, 30, 9, 3)},
		{Name: "(150,50,30,9,3) D=6", Digits: 6, Base: 256, Thresholds: ms(150, 50, 30, 9, 3)},
		{Name: "(150,80,30,9,3) D=6", Digits: 6, Base: 256, Thresholds: ms(150, 80, 30, 9, 3)},
		{Name: "(150,30,9) D=4", Digits: 4, Base: 256, Thresholds: ms(150, 30, 9)},
	}
}

// RunThresholdSweep executes Fig. 14: T-mesh rekey latency for each
// threshold variant. Variants execute sequentially; each variant's runs
// fan out like any other RunLatency.
func RunThresholdSweep(joins, runs int, seed int64, variants []ThresholdVariant) (map[string]*LatencyResult, error) {
	if len(variants) == 0 {
		variants = PaperThresholdVariants()
	}
	out := make(map[string]*LatencyResult, len(variants))
	for _, v := range variants {
		res, err := RunLatency(v.latencyConfig(joins, runs, seed))
		if err != nil {
			return nil, fmt.Errorf("exp: variant %q: %w", v.Name, err)
		}
		out[v.Name] = res
	}
	return out, nil
}
