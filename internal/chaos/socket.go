// Socket soak: the fault ladder proven outside the simulator. The
// event-driven engine in chaos.go exercises the paper's invariants over
// simulated time; this file drives the same five-auditor battery over a
// rekeyd.World — real goroutine-per-node members exchanging wire frames
// through internal/transport sockets, with faults injected by the
// transport-level FaultPlan instead of the virtual network.
//
// The schedule walks a fault ladder each interval — clean, loss, delay
// spikes, partition, kill/restore, crash — and every fault heals inside
// the recovery ladder's budget, so the soak's standard of proof is
// total convergence: a surviving member that ends an interval without
// the group key is a violation, whatever the fault phase was.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"tmesh/internal/cluster"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/rekeyd"
	"tmesh/internal/transport"
)

// socketPhases is the per-interval fault ladder, cycled in order. The
// first interval is always clean (index 0 hits "clean") so the soak
// starts from a converged baseline.
var socketPhases = []string{"clean", "loss", "delay", "partition", "kill", "crash"}

// Heal points, chosen so every fault lifts well inside the recovery
// ladder's budget (recovery.Policy.Worst): the soak asserts
// convergence, so a fault that outlived the ladder would be a
// configuration bug, not a finding.
const (
	socketHealAfter = 300 * time.Millisecond
	socketLossProb  = 0.10
	socketDelayProb = 0.30
	socketDelayMin  = 2 * time.Millisecond
	socketDelayMax  = 25 * time.Millisecond
	socketKillCount = 2
	socketPartFrac  = 4 // partition cuts 1/socketPartFrac of members
)

// The socket soak's group: a small ID space with K = 2, and ladder
// timing generous enough that a clean interval converges by pure
// multicast even on a loaded race-detector run.
const socketK = 2

var (
	socketParams = ident.Params{Digits: 3, Base: 4}
	socketLadder = rekeyd.Config{
		Timeout:      500 * time.Millisecond,
		RetryBase:    50 * time.Millisecond,
		RetryMax:     200 * time.Millisecond,
		RetryBudget:  3,
		ResyncBudget: 5,
	}
)

// SocketConfig parameterizes one socket soak session.
type SocketConfig struct {
	Transport string // "loopback", "udp" or "tcp"
	Listen    string // bind address for socket transports; empty = 127.0.0.1:0
	Seed      int64
	Members   int // initial group size
	Intervals int
	Obs       *obs.Registry
}

// DefaultSocketConfig returns the configuration the soak-transport CI
// target runs: a small group and one full cycle of the fault ladder.
func DefaultSocketConfig(tr string) SocketConfig {
	return SocketConfig{Transport: tr, Seed: 1, Members: 16, Intervals: len(socketPhases)}
}

// SocketIntervalStats is the audited record of one socket-soak interval.
type SocketIntervalStats struct {
	Index   int
	Phase   string
	Members int // group size after the interval's churn

	Joins, Leaves, Crashes, Kills int

	Expected                                  int
	KeyByMulticast, KeyByUnicast, KeyByResync int
	DeadInFlight                              int
	UnicastAttempts, SyncAttempts             int
	MaxBackoff                                time.Duration

	Violations []string
}

func (s *SocketIntervalStats) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "interval %02d: phase=%-9s members=%d join=%d leave=%d crash=%d kill=%d",
		s.Index, s.Phase, s.Members, s.Joins, s.Leaves, s.Crashes, s.Kills)
	fmt.Fprintf(&b, " | key=%d/%d/%d dead=%d attempts=%d/%d backoff=%v",
		s.KeyByMulticast, s.KeyByUnicast, s.KeyByResync,
		s.DeadInFlight, s.UnicastAttempts, s.SyncAttempts, s.MaxBackoff)
	if len(s.Violations) == 0 {
		b.WriteString(" | OK")
	} else {
		fmt.Fprintf(&b, " | VIOLATIONS=%d", len(s.Violations))
	}
	return b.String()
}

// SocketReport is the outcome of one socket soak. Unlike the simulator
// report it is not byte-reproducible — rung attribution depends on real
// scheduler timing — so tests assert TotalViolations, not the exact
// rendering.
type SocketReport struct {
	Transport string
	Seed      int64
	Auditors  []string
	Intervals []SocketIntervalStats
}

// TotalViolations counts invariant failures across all intervals.
func (r *SocketReport) TotalViolations() int {
	n := 0
	for i := range r.Intervals {
		n += len(r.Intervals[i].Violations)
	}
	return n
}

// String renders the soak report.
func (r *SocketReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "socket soak transport=%s seed=%d intervals=%d auditors=%s\n",
		r.Transport, r.Seed, len(r.Intervals), strings.Join(r.Auditors, ","))
	for i := range r.Intervals {
		b.WriteString(r.Intervals[i].line())
		b.WriteByte('\n')
		for _, v := range r.Intervals[i].Violations {
			fmt.Fprintf(&b, "  violation: %s\n", v)
		}
	}
	fmt.Fprintf(&b, "final: violations=%d\n", r.TotalViolations())
	return b.String()
}

// socketRun is the live state of a socket soak.
type socketRun struct {
	cfg SocketConfig
	w   *rekeyd.World
	// clusters runs the Appendix B heuristic over the driver's churn, so
	// the cluster invariants are audited here as in the simulator.
	clusters *cluster.Manager
	rng      *rand.Rand

	// Interval-scoped: the ladder result the driver just produced and
	// whether the phase injected no fault.
	res       *rekeyd.Result
	faultFree bool

	lastEpoch map[string]uint64
	// intervalStart is the earliest JoinTime the current interval
	// admitted — the world stamps joins with a sequence number, so this
	// is "since the last audit" on the records' own clock.
	intervalStart time.Duration
}

// evidence gathers what the interval left behind for the auditors (see
// Evidence). The group is small, so Definition 3 gets the full sweep
// every interval (Churned stays nil). Coverage compares real group
// keys, every member's with the server's: every fault in the schedule
// heals inside the ladder budget, so there is no surviving-member
// carve-out. Copy counts are of the rekey message itself; in a faulty
// interval the ladder's unicasts are legitimate extra copies, so they
// are only offered in clean ones — where the ladder must have idled.
func (run *socketRun) evidence(dir *overlay.Directory) *Evidence {
	w, res := run.w, run.res
	members := w.Members()
	ids := make([]ident.ID, len(members))
	for i, m := range members {
		ids[i] = m.ID()
	}
	ev := &Evidence{
		Dir:       dir,
		Alive:     func(id ident.ID) bool { return !w.IsKilled(id) },
		FaultFree: run.faultFree,
		Tree:      w.Tree(),
		Keyed:     ids,
		GroupKeyOf: func(id ident.ID) (keycrypt.Key, bool) {
			if m, ok := w.Member(id); ok {
				return m.GroupKey()
			}
			return keycrypt.Key{}, false
		},
		Clusters:      run.clusters,
		LastEpoch:     run.lastEpoch,
		IntervalStart: run.intervalStart,
		Ladder: &Ladder{
			Expected: ids,
			RungOf: func(id ident.ID) (recovery.Rung, bool) {
				rung, ok := res.RungOf[id.Key()]
				return rung, ok
			},
			DeadInFlight: res.DeadInFlight,
			MaxBackoff:   res.MaxBackoff,
			BackoffCap:   w.Server().Policy().RetryMax,
			MustIdle:     run.faultFree,
		},
	}
	if run.faultFree {
		for _, m := range members {
			ev.Copies = append(ev.Copies, Copy{ID: m.ID(), N: m.CopiesOf(res.Interval)})
		}
	}
	return ev
}

// RunSocketSoak drives one soak session over real sockets and returns
// the audited report. A non-nil error means the driver itself broke
// (world construction, churn bookkeeping); invariant failures are
// reported as violations, never as errors, so one bad interval cannot
// hide later ones.
func RunSocketSoak(cfg SocketConfig) (*SocketReport, error) {
	if cfg.Transport == "" {
		cfg.Transport = "loopback"
	}
	if cfg.Intervals <= 0 {
		cfg.Intervals = len(socketPhases)
	}
	w, err := rekeyd.NewWorld(rekeyd.WorldConfig{
		Params:         socketParams,
		K:              socketK,
		Seed:           cfg.Seed,
		InitialMembers: cfg.Members,
		Transport:      cfg.Transport,
		Listen:         cfg.Listen,
		Ladder:         socketLadder,
		Obs:            cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()

	clusters, err := cluster.New(socketParams, seedBytes(cfg.Seed), keytree.Opts{})
	if err != nil {
		return nil, err
	}
	run := &socketRun{
		cfg:       cfg,
		w:         w,
		clusters:  clusters,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x736f636b)),
		lastEpoch: make(map[string]uint64),
	}
	// Seed the cluster state with the world's initial membership.
	if err := run.clusterJoinCurrent(); err != nil {
		return nil, err
	}

	rep := &SocketReport{Transport: cfg.Transport, Seed: cfg.Seed, Auditors: AuditorNames()}
	for idx := 0; idx < cfg.Intervals; idx++ {
		phase := socketPhases[idx%len(socketPhases)]
		stats := SocketIntervalStats{Index: idx, Phase: phase}
		if err := run.interval(phase, &stats); err != nil {
			return nil, err
		}
		var verdicts []Verdict
		var counts Counts
		w.Shared().Read(func(dir *overlay.Directory) {
			verdicts, counts = Audit(run.evidence(dir), nil)
		})
		for _, v := range verdicts {
			if line := v.Line(); line != "" {
				stats.Violations = append(stats.Violations, line)
			}
		}
		res := run.res
		stats.Members = w.Size()
		stats.Expected = res.Expected
		stats.KeyByMulticast = counts.ByRung[recovery.ByMulticast]
		stats.KeyByUnicast = counts.ByRung[recovery.ByUnicast]
		stats.KeyByResync = counts.ByRung[recovery.ByResync]
		stats.DeadInFlight = len(res.DeadInFlight)
		stats.UnicastAttempts, stats.SyncAttempts = res.UnicastAttempts, res.SyncAttempts
		stats.MaxBackoff = res.MaxBackoff
		rep.Intervals = append(rep.Intervals, stats)
	}
	return rep, nil
}

// interval applies one phase's churn and faults, runs the rekey, and
// waits for every fault to heal.
func (run *socketRun) interval(phase string, stats *SocketIntervalStats) error {
	w, plan := run.w, run.w.FaultPlan()
	run.faultFree = phase == "clean"
	var gone []ident.ID // leaves + crash evictions

	// Churn: one join per interval; from the second interval on, one
	// leave; the crash phase replaces the leave with a hard crash.
	if _, err := w.Join(); err != nil {
		return fmt.Errorf("chaos: socket join: %w", err)
	}
	stats.Joins++
	members := w.Members()
	victim := func() ident.ID { return members[run.rng.Intn(len(members))].ID() }
	switch phase {
	case "crash":
		v := victim()
		if err := w.Crash(v); err != nil {
			return fmt.Errorf("chaos: socket crash: %w", err)
		}
		gone = append(gone, v)
		stats.Crashes++
	default:
		if stats.Index > 0 {
			v := victim()
			if err := w.Leave(v); err != nil {
				return fmt.Errorf("chaos: socket leave: %w", err)
			}
			gone = append(gone, v)
			stats.Leaves++
		}
	}
	departed := make(map[string]bool, len(gone))
	for _, id := range gone {
		departed[id.Key()] = true
	}

	// Faults, healed mid-ladder by the timer goroutine.
	var heal sync.WaitGroup
	healAt := func(f func()) {
		heal.Add(1)
		go func() {
			defer heal.Done()
			time.Sleep(socketHealAfter)
			f()
		}()
	}
	switch phase {
	case "loss":
		plan.SetLoss(socketLossProb)
	case "delay":
		plan.SetDelay(socketDelayProb, socketDelayMin, socketDelayMax)
	case "partition":
		var side []transport.PeerID
		for i, m := range members {
			if i%socketPartFrac == 0 && !departed[m.ID().Key()] {
				side = append(side, rekeyd.PeerOf(m.ID()))
			}
		}
		plan.Partition(side)
		healAt(plan.HealPartition)
	case "kill":
		killed := 0
		for _, i := range run.rng.Perm(len(members)) {
			if killed == socketKillCount {
				break
			}
			id := members[i].ID()
			if departed[id.Key()] {
				continue
			}
			w.Kill(id)
			killed++
			stats.Kills++
			healAt(func() { w.Restore(id) })
		}
	}

	res, err := w.Rekey()
	if err != nil {
		return fmt.Errorf("chaos: socket rekey: %w", err)
	}
	run.res = res
	heal.Wait()
	plan.SetLoss(0)
	plan.SetDelay(0, 0, 0)

	// Replay the interval's realized churn into the cluster state.
	for _, id := range gone {
		if err := run.clusters.Leave(id); err != nil {
			return fmt.Errorf("chaos: socket cluster leave: %w", err)
		}
	}
	if err := run.clusterJoinCurrent(); err != nil {
		return err
	}
	if _, err := run.clusters.Process(); err != nil {
		return fmt.Errorf("chaos: socket cluster process: %w", err)
	}
	return nil
}

// clusterJoinCurrent feeds the cluster manager every directory member
// it does not know yet, with the directory's own records (IDs and join
// times), in deterministic order.
func (run *socketRun) clusterJoinCurrent() error {
	var recs []overlay.Record
	run.w.Shared().Read(func(dir *overlay.Directory) {
		for _, id := range dir.IDs() {
			if run.clusters.Has(id) {
				continue
			}
			if rec, ok := dir.Record(id); ok {
				recs = append(recs, rec)
			}
		}
	})
	// Feed in join order: the manager elects the most senior member per
	// cluster, so insertion order must reproduce the directory's
	// JoinTime seniority (IDs only break ties).
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].JoinTime != recs[j].JoinTime {
			return recs[i].JoinTime < recs[j].JoinTime
		}
		return recs[i].ID.Compare(recs[j].ID) < 0
	})
	for i, rec := range recs {
		if i == 0 {
			run.intervalStart = rec.JoinTime
		}
		if err := run.clusters.Join(rec); err != nil {
			return fmt.Errorf("chaos: socket cluster join %v: %w", rec.ID, err)
		}
	}
	return nil
}
