// Package chaos is a deterministic fault-injection soak engine for the
// whole T-mesh stack. It drives an N-interval group session over the
// discrete event engine — joins, leaves, correlated crash bursts,
// cluster-leader kills, crash-during-rekey, per-hop message loss, delay
// spikes, and router-level partitions — with every random choice drawn
// from seed-derived sub-RNGs, so two runs with the same configuration
// replay byte-identically (tests compare whole report strings).
//
// Every soak plays its intervals through Step over a Plane, one interval
// at a time (apply its events, flush, Audit): the simulator Engine here,
// the scale soak's KeyTenant, the socket soak's daemon world and the
// tenancy host's groups. After every rekey interval the auditor registry
// checks the paper's claims against the live state:
//
//   - k-consistency — Definition 3 holds for every table entry, the
//     whole sweep at every interval and once more at the end;
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
	"slices"
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
	"tmesh/internal/workload"
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

// Engine runs one soak session, and is the Plane its intervals are
// stepped on: Apply schedules an event on the simulator, Flush plays the
// interval's faults, data probe, rekey and boundary reap up to the
// boundary. Build with New, run with Run; an Engine is single-use and
// not safe for concurrent use.
type Engine struct {
	cfg Config
	sim *eventsim.Simulator
	top *vnet.GTITM
	net *chaosNet
	dir *overlay.Directory
	det *detector
	// tree is the full modified key tree the real rekey messages come
	// from, AES-GCM wraps included; clusters runs the Appendix B
	// heuristic alongside it, fed the same membership stream, so the
	// cluster invariants can be audited without routing the actual rekey
	// traffic through the heuristic (its own tree only counts).
	tree     *keytree.Tree
	clusters *cluster.Manager

	// Seed-derived sub-RNGs, one per concern, so adding draws to one
	// fault class cannot shift every other class's choices.
	memRNG, crashRNG, lossRNG, faultRNG, idRNG *rand.Rand

	// churn walks the membership schedule past its t=0 joins; idOf maps
	// each current member's schedule host to its ID, and ran records the
	// events executed, victims resolved, for Report.Schedule.
	churn *workload.Cursor
	idOf  map[int]ident.ID
	ran   []workload.Event

	partition *vnet.Partition

	// pending is the key tree's batch since the last rekey: joins,
	// leaves, and reaped crash evictions.
	pending keytree.Pending

	// cur is the interval being played; err is the first error a
	// simulator event hit, which stops the simulator.
	cur       interval
	err       error
	lastEpoch map[ident.Prefix]uint64

	// Every delivery delay of the soak, in milliseconds: the report's
	// percentiles are exact over them.
	dataDelay []float64
	keyDelay  []float64

	// trec is the flight recorder, nil when Config.TraceSink is nil.
	trec *trace.Recorder

	// slo evaluates the per-boundary service objectives. It always runs
	// (its inputs are deterministic counts and sim-time latencies), so
	// the report's verdict totals are byte-identical with the ops plane
	// on or off; the sink and gauges inside are nil-safe.
	slo *slo.Engine

	rep *Report
}

// interval is what the interval being played gathers for its boundary:
// its record, its data probe and its rekey. Run zeroes it as each
// interval starts.
type interval struct {
	stats IntervalStats

	data        *tmesh.Result
	dataMembers []ident.ID    // alive members at data send
	dataStart   time.Duration // virtual send time of the data probe
	dataTrace   *trace.Trace  // open while the interval is sampled

	msg        *keytree.Message // the rekey message the ladder carries
	ladder     *recovery.LadderResult
	rekeyLive  []ident.ID    // alive in-tree members at rekey send
	rekeyStart time.Duration // virtual send time of the rekey
	rekeyTrace *trace.Trace
}

// New builds a soak engine over the membership schedule it draws from
// the seed (see generate): topology, directory with the initial
// membership, failure detector, key tree, and cluster manager.
func New(cfg Config) (*Engine, error) { return newEngine(cfg, nil) }

// newEngine builds an engine that plays sched, or the schedule New draws
// when sched is nil. A recorded schedule (Report.Schedule) names every
// victim, so its replay draws none; replayed under the recording run's
// Config it reproduces that run's report. Schedule host h lives on
// network host 1+h (host 0 is the key server), and the t=0 joins are the
// initial membership.
func newEngine(cfg Config, sched *workload.Schedule) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:       cfg,
		sim:       eventsim.New(),
		memRNG:    rand.New(rand.NewSource(cfg.Seed ^ 0x6d656d)), // "mem"
		crashRNG:  rand.New(rand.NewSource(cfg.Seed ^ 0x637273)), // "crs"
		lossRNG:   rand.New(rand.NewSource(cfg.Seed ^ 0x6c6f73)), // "los"
		faultRNG:  rand.New(rand.NewSource(cfg.Seed ^ 0x666c74)), // "flt"
		idRNG:     rand.New(rand.NewSource(cfg.Seed ^ 0x696473)), // "ids"
		idOf:      make(map[int]ident.ID),
		lastEpoch: make(map[ident.Prefix]uint64),
		rep:       &Report{Seed: cfg.Seed, Auditors: AuditorNames()},
	}
	if sched == nil {
		sched = e.generate()
	}
	initial, churn, err := openSchedule(sched, cfg.Intervals)
	if err != nil {
		return nil, err
	}
	e.churn = churn
	totalHosts := max(1+cfg.InitialMembers+cfg.Intervals*maxJoins, 1+sched.Hosts)
	top, err := vnet.NewGTITM(vnet.SoakGTITMConfig(), totalHosts, cfg.Seed)
	if err != nil {
		return nil, err
	}
	net := &chaosNet{Network: top, factor: 1}
	dir, err := overlay.NewDirectory(soakParams, soakK, net, 0)
	if err != nil {
		return nil, err
	}
	tree, err := keytree.New(soakParams, keytree.SeedOf(cfg.Seed), keytree.Opts{Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	clusters, err := cluster.New(soakParams, keytree.SeedOf(cfg.Seed), keytree.Opts{})
	if err != nil {
		return nil, err
	}

	e.top, e.net, e.dir, e.tree, e.clusters = top, net, dir, tree, clusters
	e.slo = slo.New(slo.Config{
		Group: "chaos",
		Sink:  cfg.Sink,
		Obs:   cfg.Obs.Namespace("chaos_"),
	})
	if cfg.TraceSink != nil {
		e.trec = trace.NewRecorder(cfg.Seed, cfg.TraceSink)
	}

	for _, ev := range initial {
		if err := e.play(ev, 0); err != nil {
			return nil, err
		}
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
	return !ok || e.dropHop(e.dir.Server().Host(), rec.Host)
}

// alive reports engine-level liveness: absent from the crash table (a
// user with a pending kill still responds until the crash fires, but
// excluding it keeps victim picks and snapshots stable).
func (e *Engine) alive(id ident.ID) bool {
	_, crashed := e.det.crashes[id]
	return !crashed
}

// traceInterval reports whether the flight recorder samples the given
// 1-based interval (every TraceSample-th interval, starting at the
// first).
func (e *Engine) traceInterval(index int) bool {
	return e.trec != nil && (e.cfg.TraceSample <= 1 || (index-1)%e.cfg.TraceSample == 0)
}

// liveMembers returns the alive members in ID order.
func (e *Engine) liveMembers() []ident.ID {
	return slices.DeleteFunc(e.dir.IDs(), e.dead)
}

// dead is alive's negation, for slices.DeleteFunc.
func (e *Engine) dead(id ident.ID) bool { return !e.alive(id) }

// Run executes the soak, one Step per interval, and returns its report.
func (e *Engine) Run() (*Report, error) {
	for i := range e.cfg.Intervals {
		if err := e.step(e, i); err != nil {
			return nil, err
		}
	}
	e.rep.Schedule = workload.NewSchedule(e.ran)
	if err := e.dir.CheckConsistency(); err != nil {
		e.rep.FinalViolations = append(e.rep.FinalViolations,
			fmt.Sprintf("k-consistency: final full sweep: %v", err))
	}
	e.rep.TotalEvents = e.sim.Processed()
	e.rep.PastClamps = e.sim.PastClamps()
	e.rep.FinalMembers = e.dir.Size()
	e.rep.DataDelayMS = metrics.Summarize(metrics.NewDistribution(e.dataDelay))
	e.rep.KeyDelayMS = metrics.Summarize(metrics.NewDistribution(e.keyDelay))
	e.rep.SLOOK, e.rep.SLOWarn, e.rep.SLOPage = e.slo.Totals()
	return e.rep, nil
}

// step plays interval i (0-based) through Step on p — the engine, or a
// test's wrapper of it — and closes it.
func (e *Engine) step(p Plane, i int) error {
	e.cur = interval{stats: IntervalStats{Index: i + 1, PartitionDomain: -1}}
	boundary := time.Duration(i+1) * intervalLength
	st, err := Step(p, e.churn.Next(boundary), boundary, e.cfg.Obs)
	if err != nil {
		return err
	}
	e.closeInterval(st)
	return nil
}

// fail records the first error a simulator event hit and stops the
// simulator; Flush returns it.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
		e.sim.Stop()
	}
}

// generate draws the soak's membership schedule: InitialMembers joins
// at t=0, then per interval, at uniform times in the churn window, a
// uniform number of joins and leaves from memRNG and of crashes from
// crashRNG — either spread over the window or, with probability
// burstRate, one correlated burst inside a single detection window. Each
// stream is drawn in the order the soak has always drawn it. Leave and
// crash victims stay victimDrawn: the same streams draw them from live
// state when the event fires.
func (e *Engine) generate() *workload.Schedule {
	var events []workload.Event
	host := 0
	for ; host < e.cfg.InitialMembers; host++ {
		events = append(events, workload.Event{Kind: workload.Join, Host: host})
	}
	churnSpan := frac(intervalLength, phaseChurnEnd-phaseChurnStart)
	for i := 0; i < e.cfg.Intervals; i++ {
		from := time.Duration(i)*intervalLength + frac(intervalLength, phaseChurnStart)
		nJoins := e.memRNG.Intn(maxJoins + 1)
		nLeaves := e.memRNG.Intn(maxLeaves + 1)
		var churn []workload.Event
		for _, t := range drawTimes(e.memRNG, nJoins, from, churnSpan) {
			churn = append(churn, workload.Event{Kind: workload.Join, At: t, Host: host})
			host++
		}
		for _, t := range drawTimes(e.memRNG, nLeaves, from, churnSpan) {
			churn = append(churn, workload.Event{Kind: workload.Leave, At: t, Victim: victimDrawn})
		}

		nCrashes := e.crashRNG.Intn(maxCrashes + 1)
		burst := e.crashRNG.Float64() < burstRate
		var crashTimes []time.Duration
		if burst {
			t0 := from + time.Duration(e.crashRNG.Int63n(int64(churnSpan)))
			for c := 0; c < burstSize; c++ {
				crashTimes = append(crashTimes, t0+time.Duration(c)*50*time.Millisecond)
			}
		} else {
			crashTimes = drawTimes(e.crashRNG, nCrashes, from, churnSpan)
		}
		for _, t := range crashTimes {
			churn = append(churn, workload.Event{Kind: workload.Crash, At: t, Victim: victimDrawn, Burst: burst})
		}
		// Equal instants keep joins before leaves before crashes.
		sort.SliceStable(churn, func(a, b int) bool { return churn[a].At < churn[b].At })
		events = append(events, churn...)
	}
	return &workload.Schedule{Events: events, Hosts: host}
}

func drawTimes(rng *rand.Rand, n int, start, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = start + time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// victimDrawn marks a generated leave or crash whose victim is drawn
// from live state when the event fires.
const victimDrawn = -1

// openSchedule checks that a soak schedule fits in its intervals and
// opens with joins only at t=0, the initial membership; it returns those
// and a cursor over the rest.
func openSchedule(sched *workload.Schedule, intervals int) ([]workload.Event, *workload.Cursor, error) {
	if n := len(sched.Events); n > 0 && sched.Events[n-1].At >= time.Duration(intervals)*intervalLength {
		return nil, nil, fmt.Errorf("chaos: schedule runs to %v, past %d intervals", sched.Events[n-1].At, intervals)
	}
	cur := sched.Cursor()
	initial := cur.Next(1)
	for _, ev := range initial {
		if ev.Kind != workload.Join {
			return nil, nil, fmt.Errorf("chaos: the initial membership is joins only, not a %v of host %d", ev.Kind, ev.Subject())
		}
	}
	return initial, cur, nil
}

// Apply schedules one membership event at its time. An error playing
// it stops the simulator, and Flush returns it.
func (e *Engine) Apply(ev workload.Event) error {
	e.cur.stats.Burst = e.cur.stats.Burst || ev.Burst
	e.sim.At(ev.At, func(now time.Duration) {
		defer e.cfg.Obs.StartSpan("chaos_inject").End()
		if err := e.play(ev, now); err != nil {
			e.fail(err)
		}
	})
	return nil
}

// Flush plays the interval that ends at boundary: it draws the network
// faults from faultRNG (only Flush draws from it, always in this order,
// so the faults are independent of execution), schedules them, the data
// probe, the rekey and the boundary's reap, and runs the simulator to
// the boundary. An event
// still queued past the boundary breaks the drain invariant, which the
// report names as a final violation.
func (e *Engine) Flush(boundary time.Duration) (int, error) {
	at := func(f float64) time.Duration { return boundary - intervalLength + frac(intervalLength, f) }
	stats := &e.cur.stats
	if e.faultRNG.Float64() < partitionRate {
		stats.PartitionDomain = e.faultRNG.Intn(e.top.NumTransitDomains())
	}
	if e.faultRNG.Float64() < spikeRate {
		stats.Spike = true
		e.sim.At(at(phaseFaultStart), func(time.Duration) { e.net.factor = spikeFactor })
		e.sim.At(at(phaseFaultEnd), func(time.Duration) { e.net.factor = 1 })
	}
	if domain := stats.PartitionDomain; domain >= 0 {
		e.sim.At(at(phaseFaultStart), func(time.Duration) { e.partition = vnet.NewPartition(e.top, domain) })
		e.sim.At(at(phaseFaultEnd), func(time.Duration) { e.partition = nil })
	}
	e.sim.At(at(phaseData), e.dataProbe)
	e.sim.At(at(phaseRekey), e.rekey)
	e.sim.At(boundary, e.reap)
	e.sim.RunUntil(boundary)
	if e.err != nil {
		return 0, e.err
	}
	if n := e.sim.Pending(); n != 0 {
		e.rep.FinalViolations = append(e.rep.FinalViolations,
			fmt.Sprintf("drain: interval %d: %d events still queued past its boundary", stats.Index, n))
	}
	return stats.RekeyCost, nil
}

// Size returns the directory's membership count.
func (e *Engine) Size() int { return e.dir.Size() }

// play executes one membership event at now, counts it in the
// interval's record and records it, its victim resolved to a schedule
// host. A joiner gets a fresh ID on network host 1+Host; a victim is the
// recorded host's member or, when victimDrawn, a draw from the live
// members — memRNG's for a leave, pickVictim's for a crash. A join when
// the ID space is exhausted, and a drawn departure that would break the
// quorum, are skipped and not recorded.
func (e *Engine) play(ev workload.Event, now time.Duration) error {
	ev.At = now
	stats := &e.cur.stats
	var id ident.ID
	switch ev.Kind {
	case workload.Join:
		if _, dup := e.idOf[ev.Host]; dup {
			return fmt.Errorf("chaos: join of schedule host %d, already a member", ev.Host)
		}
		var err error
		if id, err = e.freeID(); err != nil {
			return nil // ID space exhausted; skip, counts stay honest
		}
		rec := overlay.Record{Host: vnet.HostID(1 + ev.Host), ID: id, JoinTime: now}
		if err := e.dir.Join(rec); err != nil {
			return err
		}
		if err := e.clusters.Join(rec); err != nil {
			return err
		}
		// A reused ID of an evicted crasher starts fresh. The initial
		// members join before the detector exists; it enrols them itself.
		if e.det != nil {
			e.det.observe(id)
		}
		e.pending.Join(id)
		e.idOf[ev.Host] = id
		stats.Joins++
	case workload.Leave, workload.Crash:
		if ev.Victim == victimDrawn {
			live := e.liveMembers()
			if len(live) <= 2 {
				return nil // keep a quorum so rekeying stays meaningful
			}
			drawn := live[0]
			if ev.Kind == workload.Leave {
				drawn = live[e.memRNG.Intn(len(live))]
			} else {
				drawn, ev.Leader = e.pickVictim(live)
			}
			rec, _ := e.dir.Record(drawn)
			ev.Victim = int(rec.Host) - 1
		}
		var ok bool
		if id, ok = e.idOf[ev.Victim]; !ok {
			return fmt.Errorf("chaos: %v of schedule host %d, not a member", ev.Kind, ev.Victim)
		}
		delete(e.idOf, ev.Victim)
		if ev.Kind == workload.Crash {
			e.det.kill(id, now)
			stats.Crashes++
			if ev.Leader {
				stats.LeaderKills++
			}
			break
		}
		if err := e.dir.Leave(id); err != nil {
			return fmt.Errorf("chaos: leave %v: %w", id, err)
		}
		if err := e.clusters.Leave(id); err != nil {
			return fmt.Errorf("chaos: cluster leave %v: %w", id, err)
		}
		e.queueLeave(id)
		stats.Leaves++
	default:
		return fmt.Errorf("chaos: event of unknown kind %v", ev.Kind)
	}
	e.ran = append(e.ran, ev)
	return nil
}

// queueLeave queues a departure into the key-tree batch; a joiner of
// the same interval cancels out instead, counted in chaos_join_cancelled.
func (e *Engine) queueLeave(id ident.ID) {
	if e.pending.Leave(id) {
		e.cfg.Obs.Counter("chaos_join_cancelled").Inc()
	}
}

// pickVictim draws a crash victim: with leaderKillRate probability a
// current cluster leader, otherwise a uniformly random live member.
func (e *Engine) pickVictim(live []ident.ID) (ident.ID, bool) {
	if e.crashRNG.Float64() < leaderKillRate {
		var leaders []ident.ID
		for _, p := range e.clusters.Prefixes() {
			if rec, ok := e.clusters.Leader(p); ok && e.alive(rec.ID) {
				leaders = append(leaders, rec.ID)
			}
		}
		if len(leaders) > 0 {
			return leaders[e.crashRNG.Intn(len(leaders))], true
		}
	}
	return live[e.crashRNG.Intn(len(live))], false
}

// dataProbe multicasts a data payload (Theorem 1 probe) and snapshots
// who was alive to receive it.
func (e *Engine) dataProbe(now time.Duration) {
	cur := &e.cur
	cur.dataMembers, cur.dataStart = e.liveMembers(), now
	if e.traceInterval(cur.stats.Index) {
		cur.dataTrace = e.trec.Begin("data", cur.stats.Index, now, "", nil)
		for _, id := range cur.dataMembers {
			cur.dataTrace.Member(id)
		}
	}
	res, err := tmesh.Multicast(tmesh.Config[int]{
		Dir:     e.dir,
		Alive:   e.det.up,
		DropHop: e.dropHop,
		Sim:     e.sim,
		StartAt: now,
		Obs:     e.cfg.Obs,
		Trace:   cur.dataTrace,
	}, 1)
	if err != nil {
		e.fail(fmt.Errorf("chaos: data multicast: %w", err))
		return
	}
	cur.data = res
}

// rekey ends the key-management interval: reap evictions, batch the
// churn through the key tree, and distribute the rekey message down the
// degradation ladder.
func (e *Engine) rekey(now time.Duration) {
	cur := &e.cur
	if err := e.reapEvictions(); err != nil {
		e.fail(err)
		return
	}
	if _, err := e.clusters.Process(); err != nil {
		e.fail(fmt.Errorf("chaos: cluster process: %w", err))
		return
	}

	rekeySpan := e.cfg.Obs.StartSpan("chaos_rekey")
	msg, _, _, err := e.tree.Flush(&e.pending, 0)
	rekeySpan.End()
	if err != nil {
		e.fail(fmt.Errorf("chaos: key tree batch: %w", err))
		return
	}
	cur.stats.RekeyCost = msg.Cost()
	if msg.Cost() == 0 {
		return // no churn reached the tree; nothing to distribute
	}
	for _, id := range e.liveMembers() {
		if e.tree.Structure().Contains(id) {
			cur.rekeyLive = append(cur.rekeyLive, id)
		}
	}
	if e.traceInterval(cur.stats.Index) {
		cur.rekeyTrace = e.trec.Begin("rekey", cur.stats.Index, now,
			split.PerEncryption.String(), split.EncIDs(msg.Encryptions))
		for _, id := range cur.rekeyLive {
			cur.rekeyTrace.Member(id)
		}
	}
	cur.rekeyStart = now
	deliverSpan := e.cfg.Obs.StartSpan("chaos_deliver")
	var lr *recovery.LadderResult
	obs.WithStage(e.cfg.Obs, "deliver", func() {
		lr, err = recovery.DistributeLadder(recovery.LadderConfig{
			Dir:         e.dir,
			Sim:         e.sim,
			StartAt:     now,
			DropHop:     e.dropHop,
			Alive:       e.det.up,
			Policy:      soakPolicy,
			DropUnicast: e.dropUnicast,
			Obs:         e.cfg.Obs,
			Trace:       cur.rekeyTrace,
		}, msg)
	})
	deliverSpan.End()
	if err != nil {
		e.fail(fmt.Errorf("chaos: rekey distribution: %w", err))
		return
	}
	cur.msg, cur.ladder = msg, lr
}

// unreaped returns, in ID order, the IDs of the crashes the engine has
// not reaped yet that pass the filter.
func (e *Engine) unreaped(keep func(*crash) bool) []ident.ID {
	var ids []ident.ID
	for id, c := range e.det.crashes {
		if !c.reaped && keep(c) {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, ident.ID.Compare)
	return ids
}

// reapEvictions notices crashed users the detector has evicted since the
// last reap: they leave their cluster and queue for the next key-tree
// batch.
func (e *Engine) reapEvictions() error {
	gone := e.unreaped(func(c *crash) bool {
		_, present := e.dir.Record(c.id)
		return !present
	})
	for _, key := range gone {
		c := e.det.crashes[key]
		if err := e.clusters.Leave(c.id); err != nil {
			return fmt.Errorf("chaos: cluster evict %v: %w", c.id, err)
		}
		e.queueLeave(c.id)
		c.reaped = true
	}
	return nil
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

// reap runs at the boundary: it reaps stragglers and takes the group's
// size for the record.
func (e *Engine) reap(now time.Duration) {
	e.rep.OrphanEvicted += e.reapOrphans(now)
	if err := e.reapEvictions(); err != nil {
		e.fail(err)
	}
	e.cur.stats.Members = e.dir.Size()
}

// Evidence gathers what the interval left behind for the auditors: the
// directory, the data probe's copy counts, the cluster state, and the
// ladder's outcome. The rekey messages carry real wraps, but the
// simulator keeps no member keyrings, so coverage rests on the rungs
// alone.
func (e *Engine) Evidence() *Evidence {
	cur := &e.cur
	ev := &Evidence{
		Dir:           e.dir,
		Alive:         e.alive,
		FaultFree:     cur.stats.PartitionDomain < 0 && e.cfg.HopLoss == 0,
		Clusters:      e.clusters,
		LastEpoch:     e.lastEpoch,
		IntervalStart: time.Duration(cur.stats.Index-1) * intervalLength,
	}
	if cur.data != nil {
		for _, id := range cur.dataMembers {
			n := 0
			if st := cur.data.Users[id]; st != nil {
				n = st.Received
			}
			ev.Copies = append(ev.Copies, Copy{ID: id, N: n})
		}
	}
	if lr := cur.ladder; lr != nil {
		lr.Finish()
		ev.Ladder, ev.Owed = &lr.Outcome, cur.rekeyLive
	}
	return ev
}

// closeInterval records the interval Step audited: its report line and
// JSONL record, its flight-recorder traces, its delivery delays and its
// SLO boundary.
func (e *Engine) closeInterval(st Stepped) {
	cur, ev := &e.cur, st.Evidence
	stats := &cur.stats
	stats.record(ev, st.Verdicts, st.Counts)
	if lr := cur.ladder; lr != nil && lr.Multicast != nil {
		for _, u := range lr.Multicast.Users {
			stats.ForwardedEncs += u.UnitsForwarded
		}
	}
	if e.cfg.Sink != nil {
		verdicts := make([]auditVerdict, len(st.Verdicts))
		for i, r := range st.Verdicts {
			verdicts[i] = auditVerdict{Name: r.Name, OK: len(r.Violations) == 0, Violation: strings.Join(r.Violations, "; ")}
		}
		e.cfg.Sink.Emit(intervalEvent{Kind: "interval", IntervalStats: *stats, Audits: verdicts})
	}

	// Close the interval's flight-recorder traces with the survivor set
	// each delivery guarantee applies to — the same sets the delivery
	// and coverage auditors swept — so the offline trace audit reaches
	// the same verdicts.
	cur.dataTrace.End(slices.DeleteFunc(slices.Clone(cur.dataMembers), e.dead), ev.FaultFree)
	// The surviving members owed the interval's keys.
	rekeySurv := slices.DeleteFunc(slices.Clone(cur.rekeyLive), func(id ident.ID) bool { return !ev.survivor(id) })
	cur.rekeyTrace.End(rekeySurv, ev.FaultFree)

	// Keep the interval's delivery delays for the soak-wide percentiles.
	if cur.data != nil {
		for _, id := range cur.dataMembers {
			if u := cur.data.Users[id]; u != nil && u.Received > 0 {
				e.dataDelay = append(e.dataDelay, float64(u.Delay-cur.dataStart)/float64(time.Millisecond))
			}
		}
	}
	var keyLat []float64
	if cur.ladder != nil {
		for _, id := range cur.rekeyLive {
			if at, ok := cur.ladder.DeliveredAt[id]; ok {
				keyLat = append(keyLat, float64(at-cur.rekeyStart)/float64(time.Millisecond))
			}
		}
	}
	e.keyDelay = append(e.keyDelay, keyLat...)

	// Close the boundary against the service objectives. Expected is
	// rekeySurv, the set the coverage auditor swept; Delivered are those
	// of them the ladder reached, as coverage tallied them. All
	// inputs are deterministic, so the verdict — and the "slo" record
	// emitted right after the interval record — replays byte-identically.
	e.slo.Observe(slo.Boundary{
		Boundary:     stats.Index,
		Members:      stats.Members,
		Escalations:  stats.KeyByUnicast + stats.KeyByResync,
		RekeyCost:    stats.RekeyCost,
		LatenciesMS:  keyLat,
		Expected:     len(rekeySurv),
		Delivered:    stats.KeyByMulticast + stats.KeyByUnicast + stats.KeyByResync,
		DeadInFlight: stats.DeadInFlight,
	})
	e.rep.Intervals = append(e.rep.Intervals, *stats)
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
