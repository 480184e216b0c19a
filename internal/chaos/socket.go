// Socket soak: the simulator soak run over a different wire. The
// event-driven engine in chaos.go exercises the paper's invariants over
// simulated time; this file drives the same five-auditor battery over a
// rekeyd.World — real goroutine-per-node members exchanging wire frames
// through internal/transport sockets, with faults injected by the
// transport-level FaultPlan instead of the virtual network. The world is
// the simulator's (soakParams, soakK, keytree.SeedOf), every interval
// ends with the whole Definition 3 sweep, and the report is the
// simulator's Report.
//
// The soak walks a fault ladder each interval — clean, loss, delay
// spikes, partition, kill/restore, crash — and every fault heals inside
// the recovery ladder's budget, so the soak's standard of proof is
// total convergence: a surviving member that ends an interval without
// the group key is a violation, whatever the fault phase was. Its
// membership is a workload.Schedule on the chaos soak's interval grid
// (socketSchedule), batched by a workload.Cursor and recorded with every
// victim resolved, so a run replays from its own recording.
package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/obs"
	"tmesh/internal/overlay"
	"tmesh/internal/rekeyd"
	"tmesh/internal/transport"
	"tmesh/internal/workload"
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

// socketLadder is the socket wire's recovery ladder: timing generous
// enough that a clean interval converges by pure multicast even on a
// loaded race-detector run, and a budgeted resync rung.
var socketLadder = rekeyd.Config{
	Timeout:      500 * time.Millisecond,
	RetryBase:    50 * time.Millisecond,
	RetryMax:     200 * time.Millisecond,
	RetryBudget:  3,
	ResyncBudget: 5,
}

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

// socketSchedule is the soak's membership: members joins at t=0, then
// in every interval one join at the start of the churn window and, from
// the second interval on, one departure at the same instant — a crash in
// the crash phase, a leave otherwise — whose victim is drawn when it
// fires.
func socketSchedule(members, intervals int) *workload.Schedule {
	var events []workload.Event
	for h := 0; h < members; h++ {
		events = append(events, workload.Event{Kind: workload.Join, Host: h})
	}
	for idx := 0; idx < intervals; idx++ {
		at := time.Duration(idx)*intervalLength + frac(intervalLength, phaseChurnStart)
		events = append(events, workload.Event{Kind: workload.Join, At: at, Host: members + idx})
		switch {
		case socketPhases[idx%len(socketPhases)] == "crash":
			events = append(events, workload.Event{Kind: workload.Crash, At: at, Victim: victimDrawn})
		case idx > 0:
			events = append(events, workload.Event{Kind: workload.Leave, At: at, Victim: victimDrawn})
		}
	}
	return workload.NewSchedule(events)
}

// socketRun is the live state of a socket soak, and the Plane its
// intervals are stepped on: Apply plays the churn, Flush injects the
// phase's faults, rekeys and waits for the heal, and Evidence hands the
// result to the audit.
type socketRun struct {
	cfg SocketConfig
	w   *rekeyd.World
	cur *workload.Cursor
	// victimRNG draws the departures socketSchedule leaves open, killRNG
	// the kill phase's victims: separate streams, so a replay that draws
	// no victims kills the same members.
	victimRNG, killRNG *rand.Rand
	// idOf maps each current member's schedule host to its ID and hostOf
	// back; ran records the events executed, victims resolved.
	idOf   map[int]ident.ID
	hostOf map[ident.ID]int
	ran    []workload.Event

	// Interval-scoped: the record being filled and the ladder result
	// the driver just produced.
	stats IntervalStats
	res   *rekeyd.Result
}

// Evidence gathers what the interval left behind for the auditors.
// Coverage compares real group keys, every member's with the server's:
// every fault in the schedule heals inside the ladder budget, so there
// is no surviving-member carve-out. Copy counts are of the rekey message
// itself; in a faulty interval the ladder's unicasts are legitimate
// extra copies, so they are only offered in clean ones, where the ladder
// must have idled. A cost-0 interval sent nothing and owes nobody.
// rekeyd runs no Appendix B clustering, so there is no cluster state to
// audit. Only World.Rekey (in Flush) writes the directory: read unlocked.
func (run *socketRun) Evidence() *Evidence {
	w, res, faultFree := run.w, run.res, run.stats.Phase == "clean"
	var dir *overlay.Directory
	w.Shared().Read(func(d *overlay.Directory) { dir = d })
	members := w.Members()
	ids := make([]ident.ID, len(members))
	for i, m := range members {
		ids[i] = m.ID()
	}
	ev := &Evidence{
		Dir:       dir,
		Alive:     func(id ident.ID) bool { return !w.IsKilled(id) },
		FaultFree: faultFree,
		Tree:      w.Tree(),
		Keyed:     ids,
		GroupKeyOf: func(id ident.ID) (keycrypt.Key, bool) {
			if m, ok := w.Member(id); ok {
				return m.GroupKey()
			}
			return keycrypt.Key{}, false
		},
	}
	if res.Expected == 0 {
		return ev
	}
	ev.Ladder, ev.Owed, ev.MustIdle = &res.Outcome, ids, faultFree
	if faultFree {
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
func RunSocketSoak(cfg SocketConfig) (*Report, error) {
	if cfg.Intervals <= 0 {
		cfg.Intervals = len(socketPhases)
	}
	run, err := newSocketRun(cfg, socketSchedule(cfg.Members, cfg.Intervals))
	if err != nil {
		return nil, err
	}
	defer run.w.Close()
	return run.play()
}

// newSocketRun builds the world that plays sched over cfg.Intervals
// intervals: the simulator soak's ID space, K and tree seed, with
// sched's t=0 joins as the initial membership (cfg.Members is not read).
// A recorded schedule (Report.Schedule) replays without drawing a
// victim. The caller closes the world.
func newSocketRun(cfg SocketConfig, sched *workload.Schedule) (*socketRun, error) {
	if cfg.Transport == "" {
		cfg.Transport = "loopback"
	}
	initial, cur, err := openSchedule(sched, cfg.Intervals)
	if err != nil {
		return nil, err
	}
	w, err := rekeyd.NewWorld(rekeyd.WorldConfig{
		Params:         soakParams,
		K:              soakK,
		Seed:           cfg.Seed,
		InitialMembers: len(initial),
		Transport:      cfg.Transport,
		Listen:         cfg.Listen,
		Ladder:         socketLadder,
		Obs:            cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	run := &socketRun{
		cfg:       cfg,
		w:         w,
		cur:       cur,
		victimRNG: rand.New(rand.NewSource(cfg.Seed ^ 0x736f636b)), // "sock"
		killRNG:   rand.New(rand.NewSource(cfg.Seed ^ 0x6b696c6c)), // "kill"
		idOf:      make(map[int]ident.ID),
		hostOf:    make(map[ident.ID]int),
		ran:       slices.Clone(initial),
	}
	// The world admitted the initial joiners in order, the i-th on
	// network host i+1.
	w.Shared().Read(func(dir *overlay.Directory) {
		for _, m := range w.Members() {
			rec, _ := dir.Record(m.ID())
			h := initial[rec.Host-1].Host
			run.idOf[h], run.hostOf[m.ID()] = m.ID(), h
		}
	})
	return run, nil
}

// play steps every interval and reports in the simulator's grammar:
// churn, the phase's faults, the rekey and the heal, then the audit,
// with the whole Definition 3 sweep like the simulator's.
func (run *socketRun) play() (*Report, error) {
	rep := &Report{Seed: run.cfg.Seed, Transport: run.cfg.Transport, Auditors: AuditorNames()}
	for idx := range run.cfg.Intervals {
		if err := run.step(idx); err != nil {
			return nil, err
		}
		rep.Intervals = append(rep.Intervals, run.stats)
	}
	rep.Schedule = workload.NewSchedule(run.ran)
	rep.FinalMembers = run.w.Size()
	return rep, nil
}

// step plays interval idx (0-based) through Step and fills its record.
func (run *socketRun) step(idx int) error {
	run.stats = IntervalStats{Index: idx + 1, Phase: socketPhases[idx%len(socketPhases)], PartitionDomain: -1}
	boundary := time.Duration(idx+1) * intervalLength
	st, err := Step(run, run.cur.Next(boundary), boundary, nil)
	if err != nil {
		return err
	}
	run.stats.record(st.Evidence, st.Verdicts, st.Counts)
	run.stats.Members = run.w.Size()
	run.stats.RekeyCost, run.stats.ResyncSends = st.Cost, run.res.SyncAttempts
	return nil
}

// Size returns the number of member nodes.
func (run *socketRun) Size() int { return run.w.Size() }

// Flush closes the interval: it injects the phase's faults, runs the
// rekey, and waits for every fault to heal.
func (run *socketRun) Flush(time.Duration) (int, error) {
	w, plan := run.w, run.w.FaultPlan()
	members := w.Members() // this interval's leavers and crashers included

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
	switch run.stats.Phase {
	case "loss":
		plan.SetLoss(socketLossProb)
	case "delay":
		plan.SetDelay(socketDelayProb, socketDelayMin, socketDelayMax)
	case "partition":
		var side []transport.PeerID
		for i, m := range members {
			if _, current := run.hostOf[m.ID()]; current && i%socketPartFrac == 0 {
				side = append(side, rekeyd.PeerOf(m.ID()))
			}
		}
		plan.Partition(side)
		healAt(plan.HealPartition)
	case "kill":
		killed := 0
		for _, i := range run.killRNG.Perm(len(members)) {
			if killed == socketKillCount {
				break
			}
			id := members[i].ID()
			if _, current := run.hostOf[id]; !current {
				continue
			}
			w.Kill(id)
			killed++
			run.stats.Kills++
			healAt(func() { w.Restore(id) })
		}
	}

	res, err := w.Rekey()
	if err != nil {
		return 0, fmt.Errorf("chaos: socket rekey: %w", err)
	}
	run.res = res
	heal.Wait()
	plan.SetLoss(0)
	plan.SetDelay(0, 0, 0)
	return res.Cost, nil
}

// Apply plays one membership event on the world and records it. A
// drawn victim is a member node that has not departed this interval.
func (run *socketRun) Apply(ev workload.Event) error {
	w, stats := run.w, &run.stats
	if ev.Kind == workload.Join {
		if _, dup := run.idOf[ev.Host]; dup {
			return fmt.Errorf("chaos: socket join of schedule host %d, already a member", ev.Host)
		}
		id, err := w.Join()
		if err != nil {
			return fmt.Errorf("chaos: socket join: %w", err)
		}
		run.idOf[ev.Host], run.hostOf[id] = id, ev.Host
		stats.Joins++
		run.ran = append(run.ran, ev)
		return nil
	}
	if ev.Victim == victimDrawn {
		var live []int
		for _, m := range w.Members() {
			if h, current := run.hostOf[m.ID()]; current {
				live = append(live, h)
			}
		}
		ev.Victim = live[run.victimRNG.Intn(len(live))]
	}
	id, ok := run.idOf[ev.Victim]
	if !ok {
		return fmt.Errorf("chaos: socket %v of schedule host %d, not a member", ev.Kind, ev.Victim)
	}
	switch ev.Kind {
	case workload.Leave:
		if err := w.Leave(id); err != nil {
			return fmt.Errorf("chaos: socket leave: %w", err)
		}
		stats.Leaves++
	case workload.Crash:
		if err := w.Crash(id); err != nil {
			return fmt.Errorf("chaos: socket crash: %w", err)
		}
		stats.Crashes++
	default:
		return fmt.Errorf("chaos: socket event of unknown kind %v", ev.Kind)
	}
	delete(run.idOf, ev.Victim)
	delete(run.hostOf, id)
	run.ran = append(run.ran, ev)
	return nil
}
