// Package chaos is a deterministic fault-injection soak engine for the
// whole T-mesh stack. It drives an N-interval group session over the
// discrete event engine — joins, leaves, correlated crash bursts,
// cluster-leader kills, crash-during-rekey, per-hop message loss, delay
// spikes, and router-level partitions — with every random choice drawn
// from seed-derived sub-RNGs, so two runs with the same configuration
// replay byte-identically (tests compare whole report strings).
//
// After every rekey interval an auditor registry checks the paper's
// claims against the live state:
//
//   - k-consistency — Definition 3 holds for every table entry a churned
//     ID can affect (overlay.CheckConsistencyUnder), with a periodic and
//     final full sweep;
//   - delivery — the interval's data multicast delivered at most one
//     copy per user (Theorem 1), exactly one in fault-free intervals;
//   - coverage — every surviving member that was in the group at rekey
//     time holds the interval's group key (Lemma 3 / Theorem 2), whether
//     it arrived by multicast, unicast recovery, or full resync;
//   - cluster — bottom-cluster leaders are unique, alive, the
//     earliest-joined member of their cluster, and leadership epochs
//     grow monotonically (Appendix B);
//   - ladder — every user that entered recovery either completed a rung
//     or died; no delivery chain is left dangling.
//
// Rekey messages travel the degradation ladder
// (recovery.DistributeLadder): multicast, then per-user unicast recovery
// with capped exponential backoff, then a reliable full resync.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"tmesh/internal/cluster"
	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/metrics"
	"tmesh/internal/obs"
	"tmesh/internal/obs/slo"
	"tmesh/internal/obs/trace"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/split"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
)

// Config parameterises a soak session: its seed, length, starting size
// and hop loss, plus the optional telemetry outputs. Everything else
// about the session is the fixed schedule below.
type Config struct {
	Seed int64

	Intervals      int
	InitialMembers int

	// HopLoss is the per-hop drop probability applied to multicast hops
	// and recovery unicasts.
	HopLoss float64

	// Obs is the optional telemetry registry: phase spans (inject,
	// rekey, deliver, audit), per-auditor pass/fail counters and
	// durations, and the ladder/keytree counters of the stages the soak
	// drives. Nil (the default) disables all instrumentation; the report
	// is byte-identical either way.
	Obs *obs.Registry
	// Sink, when non-nil, receives one structured JSONL record per
	// audited interval. Records carry only deterministic fields (counts,
	// virtual times, audit verdicts) — never wall-clock durations — so
	// seed-identical runs emit byte-identical streams.
	Sink *obs.Sink

	// TraceSink, when non-nil, arms the flight recorder: sampled
	// intervals trace their data probe and rekey ladder hop by hop into
	// this JSONL sink (see internal/obs/trace). Like Sink, records are
	// fully deterministic, and the soak report is byte-identical with
	// tracing on or off.
	TraceSink *obs.Sink
	// TraceSample traces every k-th interval (<= 1 traces all). Only
	// meaningful with TraceSink set.
	TraceSample int
}

// DefaultConfig returns a soak tuned for the acceptance bar: >= 20
// intervals, >= 10k events, every fault class enabled.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Intervals: 20, InitialMembers: 250}
}

// The soak's fixed schedule. TestSoakScheduleFits checks that it leaves
// room for its own failure machinery: worst-case detection of the last
// in-window crash completes before the audit, and the ladder's worst
// chain fits between the rekey point and the audit.
const (
	soakK          = 3
	intervalLength = 20 * time.Second

	// Per-interval churn ceilings; actual counts are drawn uniformly
	// from [0, ceiling].
	maxJoins, maxLeaves, maxCrashes = 6, 5, 3
	// leaderKillRate is the probability that a crash targets a current
	// bottom-cluster leader instead of a uniformly random member.
	leaderKillRate = 0.3
	// burstRate is the probability that an interval's crashes land as a
	// correlated burst of burstSize, 50 ms apart.
	burstRate = 0.25
	burstSize = 3
	// partitionRate is the probability that an interval isolates one
	// transit domain for its middle stretch.
	partitionRate = 0.2
	// With probability spikeRate an interval multiplies all host-to-host
	// delays by spikeFactor for its middle stretch.
	spikeRate   = 0.25
	spikeFactor = 3

	// Failure detection (the detector): ping period and the unanswered
	// pings that declare a neighbor dead.
	pingInterval = 2 * time.Second
	misses       = 2

	// fullSweepEvery runs the O(N·D·B) full consistency sweep every k-th
	// interval on top of the scoped per-churn checks (the final sweep
	// always runs).
	fullSweepEvery = 5
)

var (
	soakParams = ident.Params{Digits: 3, Base: 8}
	// soakPolicy is the degradation ladder. The simulator's resync is the
	// reliable one-shot, so the resync budget stays 0.
	soakPolicy = recovery.Policy{
		Timeout:     1500 * time.Millisecond,
		RetryBase:   200 * time.Millisecond,
		RetryMax:    time.Second,
		RetryBudget: 3,
	}
)

// Interval phase fractions: churn lands in the first 45%, the Theorem 1
// data probe at 50%, the rekey multicast at 60%, and the audit at the
// boundary. Network faults hold over the middle stretch so they overlap
// both multicasts and the recovery ladder.
const (
	phaseChurnStart = 0.05
	phaseChurnEnd   = 0.45
	phaseData       = 0.50
	phaseRekey      = 0.60
	phaseFaultStart = 0.48
	phaseFaultEnd   = 0.85
)

func (c Config) validate() error {
	switch {
	case c.Intervals < 1 || c.InitialMembers < 2:
		return fmt.Errorf("chaos: need >= 1 interval and >= 2 initial members")
	case c.HopLoss < 0 || c.HopLoss >= 1:
		return fmt.Errorf("chaos: HopLoss must be in [0, 1)")
	}
	return nil
}

func frac(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// chaosNet wraps the topology to apply delay spikes: a factor > 1
// scales every host-to-host delay (access delays included via RTT)
// while the router graph, link paths, and host attachments stay fixed.
// Uniform scaling preserves RTT ordering, so neighbor selection is
// unperturbed.
type chaosNet struct {
	vnet.Network
	factor float64
}

func (c *chaosNet) scale(d time.Duration) time.Duration {
	if c.factor <= 1 {
		return d
	}
	return time.Duration(float64(d) * c.factor)
}

func (c *chaosNet) RTT(a, b vnet.HostID) time.Duration    { return c.scale(c.Network.RTT(a, b)) }
func (c *chaosNet) OneWay(a, b vnet.HostID) time.Duration { return c.scale(c.Network.OneWay(a, b)) }
func (c *chaosNet) GatewayRTT(a, b vnet.HostID) time.Duration {
	return c.scale(c.Network.GatewayRTT(a, b))
}

// Engine runs one soak session. Build with New, run with Run; an Engine
// is single-use and not safe for concurrent use.
type Engine struct {
	cfg Config
	sim *eventsim.Simulator
	top *vnet.GTITM
	net *chaosNet
	dir *overlay.Directory
	det *detector
	// tree is the full modified key tree the real rekey messages come
	// from; clusters runs the Appendix B heuristic alongside it, fed the
	// same membership stream, so the cluster invariants can be audited
	// without routing the actual rekey traffic through the heuristic.
	tree     *keytree.Tree
	clusters *cluster.Manager

	// Seed-derived sub-RNGs, one per concern, so adding draws to one
	// fault class cannot shift every other class's choices.
	memRNG, crashRNG, lossRNG, faultRNG, idRNG *rand.Rand

	freeHosts []vnet.HostID

	partition *vnet.Partition

	// pending is the key tree's batch since the last rekey: joins,
	// leaves, and reaped crash evictions.
	pending         keytree.Pending
	churnSinceAudit map[string]ident.ID

	// Live results of the current interval.
	curData     *tmesh.Result
	dataMembers []ident.ID // alive members at data send
	curLadder   *recovery.LadderResult
	rekeyLive   []ident.ID // alive in-tree members at rekey send
	lastEpoch   map[string]uint64

	// Streaming (constant-memory) delivery-delay percentiles over the
	// whole soak, fed in deterministic member order at each audit so
	// same-seed runs report identical estimates.
	dataDelay  *metrics.StreamingSummary
	keyDelay   *metrics.StreamingSummary
	rekeyStart time.Duration // virtual send time of the current rekey

	// Flight recorder (nil when Config.TraceSink is nil) and the open
	// traces of the current sampled interval.
	trec          *trace.Recorder
	curDataTrace  *trace.Trace
	curRekeyTrace *trace.Trace

	// slo evaluates the per-boundary service objectives. It always runs
	// (its inputs are deterministic counts and sim-time latencies), so
	// the report's verdict totals are byte-identical with the ops plane
	// on or off; the sink and gauges inside are nil-safe.
	slo *slo.Engine
	// profLabel tags pipeline stages with pprof {group, stage} labels
	// when the ops plane is armed (Config.Obs non-nil); empty otherwise,
	// keeping the uninstrumented hop path label-free.
	profLabel string

	rep *Report
}

// New builds a soak engine: topology, directory with the initial
// membership, failure detector, key tree, and cluster manager.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	totalHosts := 1 + cfg.InitialMembers + cfg.Intervals*maxJoins
	top, err := vnet.NewGTITM(vnet.SoakGTITMConfig(), totalHosts, cfg.Seed)
	if err != nil {
		return nil, err
	}
	net := &chaosNet{Network: top, factor: 1}
	dir, err := overlay.NewDirectory(soakParams, soakK, net, 0)
	if err != nil {
		return nil, err
	}
	profLabel := ""
	if cfg.Obs != nil {
		profLabel = "chaos"
	}
	tree, err := keytree.New(soakParams, seedBytes(cfg.Seed), keytree.Opts{Obs: cfg.Obs, Label: profLabel})
	if err != nil {
		return nil, err
	}
	clusters, err := cluster.New(soakParams, seedBytes(cfg.Seed), keytree.Opts{})
	if err != nil {
		return nil, err
	}

	e := &Engine{
		cfg:             cfg,
		sim:             eventsim.New(),
		top:             top,
		net:             net,
		dir:             dir,
		tree:            tree,
		clusters:        clusters,
		memRNG:          rand.New(rand.NewSource(cfg.Seed ^ 0x6d656d)), // "mem"
		crashRNG:        rand.New(rand.NewSource(cfg.Seed ^ 0x637273)), // "crs"
		lossRNG:         rand.New(rand.NewSource(cfg.Seed ^ 0x6c6f73)), // "los"
		faultRNG:        rand.New(rand.NewSource(cfg.Seed ^ 0x666c74)), // "flt"
		idRNG:           rand.New(rand.NewSource(cfg.Seed ^ 0x696473)), // "ids"
		churnSinceAudit: make(map[string]ident.ID),
		lastEpoch:       make(map[string]uint64),
		dataDelay:       metrics.NewStreamingSummary(),
		keyDelay:        metrics.NewStreamingSummary(),
		profLabel:       profLabel,
		rep:             &Report{Seed: cfg.Seed, Auditors: AuditorNames()},
	}
	e.slo = slo.New(slo.Config{
		Group: "chaos",
		Sink:  cfg.Sink,
		Obs:   cfg.Obs.Namespace("chaos_"),
	})
	if cfg.TraceSink != nil {
		e.trec = trace.NewRecorder(cfg.Seed, cfg.TraceSink)
	}

	// Initial membership, host 0 is the key server.
	for h := 1; h < totalHosts; h++ {
		e.freeHosts = append(e.freeHosts, vnet.HostID(h))
	}
	for i := 0; i < cfg.InitialMembers; i++ {
		id, err := e.freeID()
		if err != nil {
			return nil, err
		}
		rec := overlay.Record{Host: e.popHost(), ID: id, JoinTime: 0}
		if err := dir.Join(rec); err != nil {
			return nil, err
		}
		if err := clusters.Join(rec); err != nil {
			return nil, err
		}
		e.pending.Join(id)
	}
	if _, _, _, err := tree.Flush(&e.pending, 0); err != nil {
		return nil, err
	}
	if _, err := clusters.Process(); err != nil {
		return nil, err
	}

	e.det = newDetector(dir, e.sim, rand.New(rand.NewSource(cfg.Seed^0x70686173))) // "phas"
	return e, nil
}

func seedBytes(seed int64) []byte {
	return []byte(fmt.Sprintf("chaos-%d", seed))
}

func (e *Engine) popHost() vnet.HostID {
	h := e.freeHosts[0]
	e.freeHosts = e.freeHosts[1:]
	return h
}

// freeID draws an unused ID uniformly from the ID space.
func (e *Engine) freeID() (ident.ID, error) {
	return ident.FreeID(soakParams, e.idRNG, func(id ident.ID) bool {
		// The cluster manager can briefly hold an evicted crasher the
		// engine has not reaped yet; skip those too so the two never
		// diverge.
		_, taken := e.dir.Record(id)
		return taken || e.clusters.Has(id)
	})
}

// dropHop is the per-hop loss model shared by both multicasts: a hop is
// lost when the active partition cuts it or the loss coin says so.
func (e *Engine) dropHop(from, to vnet.HostID) bool {
	if e.partition != nil && e.partition.Cuts(from, to) {
		return true
	}
	return e.cfg.HopLoss > 0 && e.lossRNG.Float64() < e.cfg.HopLoss
}

// dropUnicast applies the same model to one recovery exchange with the
// server.
func (e *Engine) dropUnicast(u ident.ID, attempt int) bool {
	rec, ok := e.dir.Record(u)
	if !ok {
		return true
	}
	server := e.dir.Server().Host()
	if e.partition != nil && e.partition.Cuts(server, rec.Host) {
		return true
	}
	return e.cfg.HopLoss > 0 && e.lossRNG.Float64() < e.cfg.HopLoss
}

// alive reports engine-level liveness: absent from the crash table (a
// user with a pending kill still responds until the crash fires, but
// excluding it keeps victim picks and snapshots stable).
func (e *Engine) alive(id ident.ID) bool {
	_, crashed := e.det.crashes[id.Key()]
	return !crashed
}

// traceInterval reports whether the flight recorder samples the given
// 1-based interval (every TraceSample-th interval, starting at the
// first).
func (e *Engine) traceInterval(index int) bool {
	if e.trec == nil {
		return false
	}
	k := e.cfg.TraceSample
	if k <= 1 {
		return true
	}
	return (index-1)%k == 0
}

// liveMembers returns the alive members in ID order.
func (e *Engine) liveMembers() []ident.ID {
	var out []ident.ID
	for _, id := range e.dir.IDs() {
		if e.alive(id) {
			out = append(out, id)
		}
	}
	return out
}

// Run executes the soak and returns its report.
func (e *Engine) Run() (*Report, error) {
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
			e.sim.Stop()
		}
	}

	for i := 0; i < e.cfg.Intervals; i++ {
		e.planInterval(i, time.Duration(i)*intervalLength, fail)
	}
	e.sim.Run()
	if runErr != nil {
		return nil, runErr
	}

	// End-of-run checks: the queue must have drained (the drain
	// invariant) and the full Definition 3 sweep must pass.
	if n := e.sim.Pending(); n != 0 {
		e.rep.FinalViolations = append(e.rep.FinalViolations,
			fmt.Sprintf("drain: %d events still queued after the session", n))
	}
	if err := e.dir.CheckConsistency(); err != nil {
		e.rep.FinalViolations = append(e.rep.FinalViolations,
			fmt.Sprintf("k-consistency: final full sweep: %v", err))
	}
	e.rep.TotalEvents = e.sim.Processed()
	e.rep.PastClamps = e.sim.PastClamps()
	e.rep.FinalMembers = e.dir.Size()
	e.rep.DataDelayMS = e.dataDelay.Summary()
	e.rep.KeyDelayMS = e.keyDelay.Summary()
	e.rep.SLOOK, e.rep.SLOWarn, e.rep.SLOPage = e.slo.Totals()
	return e.rep, nil
}

// planInterval draws the interval's plan from the sub-RNGs (in a fixed
// order, so plans are independent of execution) and schedules its
// events. start is the interval's base virtual time.
func (e *Engine) planInterval(idx int, start time.Duration, fail func(error)) {
	at := func(f float64) time.Duration { return start + frac(intervalLength, f) }
	churnSpan := frac(intervalLength, phaseChurnEnd-phaseChurnStart)

	stats := &IntervalStats{Index: idx + 1, PartitionDomain: -1}
	e.rep.Intervals = append(e.rep.Intervals, IntervalStats{})
	slot := len(e.rep.Intervals) - 1

	// Membership plan.
	nJoins := e.memRNG.Intn(maxJoins + 1)
	nLeaves := e.memRNG.Intn(maxLeaves + 1)
	joinTimes := drawTimes(e.memRNG, nJoins, at(phaseChurnStart), churnSpan)
	leaveTimes := drawTimes(e.memRNG, nLeaves, at(phaseChurnStart), churnSpan)

	// Crash plan: either independent crashes spread over the window or
	// one correlated burst inside a single detection window.
	nCrashes := e.crashRNG.Intn(maxCrashes + 1)
	burst := e.crashRNG.Float64() < burstRate
	var crashTimes []time.Duration
	if burst {
		stats.Burst = true
		t0 := at(phaseChurnStart) + time.Duration(e.crashRNG.Int63n(int64(churnSpan)))
		for c := 0; c < burstSize; c++ {
			crashTimes = append(crashTimes, t0+time.Duration(c)*50*time.Millisecond)
		}
	} else {
		crashTimes = drawTimes(e.crashRNG, nCrashes, at(phaseChurnStart), churnSpan)
	}

	// Network fault plan.
	partitionDomain := -1
	if e.faultRNG.Float64() < partitionRate {
		partitionDomain = e.faultRNG.Intn(e.top.NumTransitDomains())
	}
	spike := e.faultRNG.Float64() < spikeRate

	for _, t := range joinTimes {
		e.sim.At(t, func(now time.Duration) { e.doJoin(now, stats) })
	}
	for _, t := range leaveTimes {
		e.sim.At(t, func(now time.Duration) { e.doLeave(now, stats, fail) })
	}
	for _, t := range crashTimes {
		e.sim.At(t, func(now time.Duration) { e.doCrash(now, stats, fail) })
	}

	if spike {
		stats.Spike = true
		e.sim.At(at(phaseFaultStart), func(time.Duration) { e.net.factor = spikeFactor })
		e.sim.At(at(phaseFaultEnd), func(time.Duration) { e.net.factor = 1 })
	}
	if partitionDomain >= 0 {
		stats.PartitionDomain = partitionDomain
		e.sim.At(at(phaseFaultStart), func(time.Duration) {
			e.partition = vnet.NewPartition(e.top, partitionDomain)
		})
		e.sim.At(at(phaseFaultEnd), func(time.Duration) { e.partition = nil })
	}

	e.sim.At(at(phaseData), func(now time.Duration) { e.doDataProbe(now, stats, fail) })
	e.sim.At(at(phaseRekey), func(now time.Duration) { e.doRekey(now, stats, fail) })
	e.sim.At(start+intervalLength, func(now time.Duration) {
		e.doAudit(now, idx, stats)
		e.rep.Intervals[slot] = *stats
	})
}

func drawTimes(rng *rand.Rand, n int, start, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = start + time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (e *Engine) doJoin(now time.Duration, stats *IntervalStats) {
	defer e.cfg.Obs.StartSpan("chaos_inject").End()
	if len(e.freeHosts) == 0 {
		return // host pool exhausted; skip silently, counts stay honest
	}
	id, err := e.freeID()
	if err != nil {
		return // ID space exhausted
	}
	rec := overlay.Record{Host: e.popHost(), ID: id, JoinTime: now}
	if err := e.dir.Join(rec); err != nil {
		return
	}
	e.det.observe(id) // a reused ID of an evicted crasher starts fresh
	if err := e.clusters.Join(rec); err == nil {
		e.pending.Join(id)
		e.churnSinceAudit[id.Key()] = id
		stats.Joins++
	}
}

func (e *Engine) doLeave(now time.Duration, stats *IntervalStats, fail func(error)) {
	defer e.cfg.Obs.StartSpan("chaos_inject").End()
	live := e.liveMembers()
	if len(live) <= 2 {
		return // keep a quorum so rekeying stays meaningful
	}
	id := live[e.memRNG.Intn(len(live))]
	if err := e.dir.Leave(id); err != nil {
		fail(fmt.Errorf("chaos: leave %v: %w", id, err))
		return
	}
	if err := e.clusters.Leave(id); err != nil {
		fail(fmt.Errorf("chaos: cluster leave %v: %w", id, err))
		return
	}
	e.pending.Leave(id)
	e.churnSinceAudit[id.Key()] = id
	stats.Leaves++
}

func (e *Engine) doCrash(now time.Duration, stats *IntervalStats, fail func(error)) {
	defer e.cfg.Obs.StartSpan("chaos_inject").End()
	victim, isLeader, ok := e.pickVictim()
	if !ok {
		return
	}
	e.det.kill(victim, now)
	e.churnSinceAudit[victim.Key()] = victim
	stats.Crashes++
	if isLeader {
		stats.LeaderKills++
	}
}

// pickVictim selects a crash victim: with LeaderKillRate probability a
// current cluster leader, otherwise a uniformly random live member.
func (e *Engine) pickVictim() (ident.ID, bool, bool) {
	live := e.liveMembers()
	if len(live) <= 2 {
		return ident.ID{}, false, false
	}
	if e.crashRNG.Float64() < leaderKillRate {
		var leaders []ident.ID
		for _, p := range e.clusters.Prefixes() {
			if rec, ok := e.clusters.Leader(p); ok && e.alive(rec.ID) {
				leaders = append(leaders, rec.ID)
			}
		}
		if len(leaders) > 0 {
			return leaders[e.crashRNG.Intn(len(leaders))], true, true
		}
	}
	return live[e.crashRNG.Intn(len(live))], false, true
}

// doDataProbe multicasts a data payload (Theorem 1 probe) and snapshots
// who was alive to receive it.
func (e *Engine) doDataProbe(now time.Duration, stats *IntervalStats, fail func(error)) {
	e.dataMembers = e.liveMembers()
	e.curDataTrace = nil
	if e.traceInterval(stats.Index) {
		e.curDataTrace = e.trec.Begin("data", stats.Index, now, "", nil)
		for _, id := range e.dataMembers {
			e.curDataTrace.Member(id)
		}
	}
	res, err := tmesh.Multicast(tmesh.Config[int]{
		Dir:     e.dir,
		Alive:   e.det.up,
		DropHop: e.dropHop,
		Sim:     e.sim,
		StartAt: now,
		Obs:     e.cfg.Obs,
		Trace:   e.curDataTrace,
	}, 1)
	if err != nil {
		fail(fmt.Errorf("chaos: data multicast: %w", err))
		return
	}
	e.curData = res
}

// doRekey ends the key-management interval: reap evictions, batch the
// churn through the key tree, and distribute the rekey message down the
// degradation ladder.
func (e *Engine) doRekey(now time.Duration, stats *IntervalStats, fail func(error)) {
	e.reapEvictions(fail)
	if _, err := e.clusters.Process(); err != nil {
		fail(fmt.Errorf("chaos: cluster process: %w", err))
		return
	}

	rekeySpan := e.cfg.Obs.StartSpan("chaos_rekey")
	msg, _, _, err := e.tree.Flush(&e.pending, 0)
	rekeySpan.End()
	if err != nil {
		fail(fmt.Errorf("chaos: key tree batch: %w", err))
		return
	}
	stats.RekeyCost = msg.Cost()

	e.curLadder = nil
	e.curRekeyTrace = nil
	e.rekeyLive = e.rekeyLive[:0]
	if msg.Cost() == 0 {
		return // no churn reached the tree; nothing to distribute
	}
	for _, id := range e.liveMembers() {
		if e.tree.Structure().Contains(id) {
			e.rekeyLive = append(e.rekeyLive, id)
		}
	}
	if e.traceInterval(stats.Index) {
		e.curRekeyTrace = e.trec.Begin("rekey", stats.Index, now,
			split.PerEncryption.String(), split.EncIDs(msg.Encryptions))
		for _, id := range e.rekeyLive {
			e.curRekeyTrace.Member(id)
		}
	}
	e.rekeyStart = now
	deliverSpan := e.cfg.Obs.StartSpan("chaos_deliver")
	var lr *recovery.LadderResult
	obs.WithStage(e.profLabel, "deliver", func() {
		lr, err = recovery.DistributeLadder(recovery.LadderConfig{
			Dir:          e.dir,
			Sim:          e.sim,
			StartAt:      now,
			DropHop:      e.dropHop,
			Alive:        e.det.up,
			Policy:       soakPolicy,
			DropUnicast:  e.dropUnicast,
			Obs:          e.cfg.Obs,
			ProfileLabel: e.profLabel,
			Trace:        e.curRekeyTrace,
		}, msg)
	})
	deliverSpan.End()
	if err != nil {
		fail(fmt.Errorf("chaos: rekey distribution: %w", err))
		return
	}
	e.curLadder = lr
}

// unreaped returns, in key order, the keys of the crashes the engine
// has not reaped yet that pass the filter.
func (e *Engine) unreaped(keep func(*crash) bool) []string {
	var keys []string
	for key, c := range e.det.crashes {
		if !c.reaped && keep(c) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// reapEvictions notices crashed users the detector has evicted since the
// last reap: they leave their cluster and queue for the next key-tree
// batch.
func (e *Engine) reapEvictions(fail func(error)) {
	gone := e.unreaped(func(c *crash) bool {
		_, present := e.dir.Record(c.id)
		return !present
	})
	for _, key := range gone {
		c := e.det.crashes[key]
		if err := e.clusters.Leave(c.id); err != nil {
			fail(fmt.Errorf("chaos: cluster evict %v: %w", c.id, err))
			return
		}
		e.pending.Leave(c.id)
		c.reaped = true
	}
}

// reapOrphans force-evicts the crashed users still in the membership
// whose crash is older than one full interval: every possible detector
// either fired or died by then, so nobody else will report them (the key
// server's own rekey-ack timeout in a real deployment).
func (e *Engine) reapOrphans(now time.Duration) int {
	cutoff := now - intervalLength
	n := 0
	for _, key := range e.unreaped(func(c *crash) bool { return c.at <= cutoff }) {
		if e.dir.Evict(e.det.crashes[key].id) == nil {
			n++
		}
	}
	return n
}

// doAudit closes the interval: reap stragglers, then run every
// registered auditor and record the verdicts.
func (e *Engine) doAudit(now time.Duration, idx int, stats *IntervalStats) {
	auditSpan := e.cfg.Obs.StartSpan("chaos_audit")
	e.rep.OrphanEvicted += e.reapOrphans(now)
	e.reapEvictions(func(error) {})
	stats.Members = e.dir.Size()

	ev := e.evidence(idx, stats)
	results, counts := Audit(ev, e.cfg.Obs)
	stats.DataDelivered, stats.DataLost = counts.CopiesDelivered, counts.CopiesLost
	stats.KeyByMulticast = counts.ByRung[recovery.ByMulticast]
	stats.KeyByUnicast = counts.ByRung[recovery.ByUnicast]
	stats.KeyByResync = counts.ByRung[recovery.ByResync]
	stats.LadderRung = "none"
	switch {
	case stats.KeyByResync > 0:
		stats.LadderRung = "resync"
	case stats.KeyByUnicast > 0:
		stats.LadderRung = "unicast"
	case stats.KeyByMulticast > 0:
		stats.LadderRung = "multicast"
	}
	if lr := e.curLadder; lr != nil {
		stats.UnicastAttempts, stats.Retries, stats.MaxBackoff = lr.UnicastAttempts, lr.Retries, lr.MaxBackoff
		stats.DeadInFlight = len(lr.DeadInFlight)
		if lr.Multicast != nil {
			for _, st := range lr.Multicast.Users {
				stats.ForwardedEncs += st.UnitsForwarded
			}
		}
	}
	verdicts := make([]auditVerdict, len(results))
	for i, r := range results {
		verdicts[i] = auditVerdict{Name: r.Name, OK: len(r.Violations) == 0, Violation: strings.Join(r.Violations, "; ")}
		if !verdicts[i].OK {
			stats.Violations = append(stats.Violations, r.Line())
		}
	}
	auditSpan.End()

	if e.cfg.Sink != nil {
		e.cfg.Sink.Emit(intervalEvent{Kind: "interval", IntervalStats: *stats, Audits: verdicts})
	}

	// Close the interval's flight-recorder traces with the survivor set
	// each delivery guarantee applies to — the same sets the delivery
	// and coverage auditors above swept — so the offline trace audit
	// reaches the same verdicts.
	if e.curDataTrace != nil {
		var surv []ident.ID
		for _, id := range e.dataMembers {
			if e.alive(id) {
				surv = append(surv, id)
			}
		}
		e.curDataTrace.End(surv, ev.FaultFree)
		e.curDataTrace = nil
	}
	var rekeySurv []ident.ID // surviving members owed the interval's keys
	for _, id := range e.rekeyLive {
		if ev.survivor(id) {
			rekeySurv = append(rekeySurv, id)
		}
	}
	if e.curRekeyTrace != nil {
		e.curRekeyTrace.End(rekeySurv, ev.FaultFree)
		e.curRekeyTrace = nil
	}

	// Fold the interval's delivery delays into the soak-wide streaming
	// percentiles. Member order is deterministic (snapshots are in ID
	// order), so the P² marker state — and hence the reported estimates
	// — replays identically for the same seed.
	if e.curData != nil {
		for _, id := range e.dataMembers {
			if st := e.curData.Users[id.Key()]; st != nil && st.Received > 0 {
				e.dataDelay.Observe(float64(st.Delay) / float64(time.Millisecond))
			}
		}
	}
	var keyLat []float64
	if e.curLadder != nil {
		for _, id := range e.rekeyLive {
			if at, ok := e.curLadder.DeliveredAt[id.Key()]; ok {
				d := float64(at-e.rekeyStart) / float64(time.Millisecond)
				e.keyDelay.Observe(d)
				keyLat = append(keyLat, d)
			}
		}
	}

	// Close the boundary against the service objectives. Expected is
	// rekeySurv, the set the coverage auditor swept; Delivered are those
	// of them the ladder reached. All
	// inputs are deterministic, so the verdict — and the "slo" record
	// emitted right after the interval record — replays byte-identically.
	sb := slo.Boundary{
		Boundary:    stats.Index,
		Members:     stats.Members,
		Escalations: stats.KeyByUnicast + stats.KeyByResync,
		RekeyCost:   stats.RekeyCost,
		LatenciesMS: keyLat,
		Expected:    len(rekeySurv),
	}
	if lr := e.curLadder; lr != nil {
		sb.DeadInFlight = len(lr.DeadInFlight)
		for _, id := range rekeySurv {
			if _, got := lr.DeliveredAt[id.Key()]; got {
				sb.Delivered++
			}
		}
	}
	e.slo.Observe(sb)

	// Reset per-interval state the auditors consumed.
	e.churnSinceAudit = make(map[string]ident.ID)
	e.curData = nil
	e.curLadder = nil
}

// evidence gathers what the interval left behind for the auditors (see
// Evidence): the directory with the IDs that churned since the last
// audit — or nil on every fullSweepEvery-th interval, which asks for
// the full Definition 3 sweep as a safety net for the scoping itself —
// the data probe's copy counts, the cluster state, and the ladder's
// outcome. The simulator's crypto is simulated, so there are no keys to
// compare: coverage rests on the rungs alone.
func (e *Engine) evidence(idx int, stats *IntervalStats) *Evidence {
	ev := &Evidence{
		Dir:           e.dir,
		Alive:         e.alive,
		FaultFree:     stats.PartitionDomain < 0 && e.cfg.HopLoss == 0,
		Clusters:      e.clusters,
		LastEpoch:     e.lastEpoch,
		IntervalStart: time.Duration(idx) * intervalLength,
	}
	if (idx+1)%fullSweepEvery != 0 {
		ev.Churned = make([]ident.ID, 0, len(e.churnSinceAudit))
		for _, id := range e.churnSinceAudit {
			ev.Churned = append(ev.Churned, id)
		}
		sort.Slice(ev.Churned, func(i, j int) bool { return ev.Churned[i].Compare(ev.Churned[j]) < 0 })
	}
	if e.curData != nil {
		for _, id := range e.dataMembers {
			n := 0
			if st := e.curData.Users[id.Key()]; st != nil {
				n = st.Received
			}
			ev.Copies = append(ev.Copies, Copy{ID: id, N: n})
		}
	}
	if lr := e.curLadder; lr != nil {
		lr.Finish()
		ev.Ladder = &Ladder{
			Expected: e.rekeyLive,
			Owed:     func(id ident.ID) bool { return len(recovery.NeededBy(lr.Message, id)) > 0 },
			RungOf: func(id ident.ID) (recovery.Rung, bool) {
				rung, ok := lr.RungOf[id.Key()]
				return rung, ok
			},
			Resynced:     lr.Resynced,
			DeadInFlight: lr.DeadInFlight,
			MaxBackoff:   lr.MaxBackoff,
			BackoffCap:   soakPolicy.RetryMax,
		}
	}
	return ev
}

// auditVerdict is one auditor's outcome inside an interval event.
type auditVerdict struct {
	Name      string `json:"name"`
	OK        bool   `json:"ok"`
	Violation string `json:"violation,omitempty"`
}

// intervalEvent is the JSONL record of one audited interval: the
// interval's stats, tagged and followed by the per-auditor verdicts.
type intervalEvent struct {
	Kind string `json:"kind"` // always "interval"
	IntervalStats
	Audits []auditVerdict `json:"audits"`
}
