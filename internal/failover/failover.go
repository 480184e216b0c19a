// Package failover simulates the failure detection and recovery
// machinery of Section 3.2 over the discrete event engine:
//
//	"User u detects the failure of a neighbor if the neighbor does not
//	respond to consecutive ping messages. Upon detecting the failure of
//	a neighbor, u sends the key server a notification message. It also
//	needs to contact some other users to look for appropriate users to
//	replace the failed one."
//
// Every owner pings its neighbors on a fixed interval (with a per-owner
// random phase). When a user crashes, each owner that holds it detects
// the failure after Misses consecutive unanswered pings, removes the
// record from the affected entry, notifies the key server (the first
// notification evicts the user from the membership view), and repairs
// the entry from the remaining members. Meanwhile, multicast keeps
// flowing: T-mesh routes around dead primaries via same-entry fallbacks,
// so recovery is not on the delivery critical path.
//
// The package reports per-detector detection latency and the protocol
// message cost of recovery, and leaves the directory K-consistent again
// (asserted by tests).
package failover

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/overlay"
)

// Config parameterises the monitor.
type Config struct {
	Dir *overlay.Directory
	Sim *eventsim.Simulator
	// PingInterval is the gap between successive pings to one neighbor.
	PingInterval time.Duration
	// Misses is the number of consecutive unanswered pings that
	// declares a neighbor dead (>= 1).
	Misses int
	// Rand drives the per-owner ping phases.
	Rand *rand.Rand
}

// Detection records one owner noticing one failure.
type Detection struct {
	Owner  ident.ID
	Failed ident.ID
	// FailedAt and DetectedAt are virtual times.
	FailedAt, DetectedAt time.Duration
}

// Latency returns how long the owner took to detect the failure.
func (d Detection) Latency() time.Duration { return d.DetectedAt - d.FailedAt }

// Report aggregates a monitoring session.
type Report struct {
	Detections []Detection
	// PingsLost counts unanswered pings (the detection cost).
	PingsLost int
	// Notifications counts owner-to-server failure notices.
	Notifications int
	// RepairMessages counts the table-repair protocol messages.
	RepairMessages int
}

// MaxLatency returns the slowest detection (zero if none).
func (r *Report) MaxLatency() time.Duration {
	var max time.Duration
	for _, d := range r.Detections {
		if d.Latency() > max {
			max = d.Latency()
		}
	}
	return max
}

// Monitor drives failure detection for one group.
type Monitor struct {
	cfg    Config
	report Report
	dead   map[string]bool
	killed map[string]bool // kills scheduled (possibly not yet effective)
	// phase holds each owner's ping phase offset in [0, PingInterval).
	phase map[string]time.Duration
}

// New validates the configuration and builds a monitor.
func New(cfg Config) (*Monitor, error) {
	if cfg.Dir == nil || cfg.Sim == nil {
		return nil, fmt.Errorf("failover: Dir and Sim are required")
	}
	if cfg.PingInterval <= 0 {
		return nil, fmt.Errorf("failover: PingInterval must be positive, got %v", cfg.PingInterval)
	}
	if cfg.Misses < 1 {
		return nil, fmt.Errorf("failover: Misses must be >= 1, got %d", cfg.Misses)
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("failover: Rand is required")
	}
	m := &Monitor{
		cfg:    cfg,
		dead:   make(map[string]bool),
		killed: make(map[string]bool),
		phase:  make(map[string]time.Duration),
	}
	for _, id := range cfg.Dir.IDs() {
		m.phase[id.Key()] = time.Duration(cfg.Rand.Int63n(int64(cfg.PingInterval)))
	}
	// Repairs, leave-refills, and joiners' table builds must not adopt a
	// crashed-but-unevicted user into an entry whose owner will never
	// monitor it; route every candidate selection through this monitor's
	// liveness view.
	cfg.Dir.SetLivenessOracle(m.Alive)
	return m, nil
}

// Observe registers a user that joined after the monitor was built: it
// draws the user's ping phase and clears any stale liveness state left
// behind by a previous holder of the same ID. Callers that grow the
// group mid-session must Observe each joiner.
func (m *Monitor) Observe(id ident.ID) {
	if _, ok := m.phase[id.Key()]; !ok {
		m.phase[id.Key()] = time.Duration(m.cfg.Rand.Int63n(int64(m.cfg.PingInterval)))
	}
	delete(m.dead, id.Key())
	delete(m.killed, id.Key())
}

// Alive reports whether a user is currently responsive; pass it to
// tmesh.Config.Alive to route multicast around failures while recovery
// is still in progress.
func (m *Monitor) Alive(id ident.ID) bool { return !m.dead[id.Key()] }

// Report returns the session report (valid after the simulator has run
// past all scheduled detections).
func (m *Monitor) Report() *Report { return &m.report }

// Kill schedules a crash of the user at the given virtual time and the
// resulting detections by every owner that holds it. The failed user
// stops responding immediately; each owner independently detects after
// Misses unanswered pings aligned to its own ping phase, then repairs.
func (m *Monitor) Kill(failed ident.ID, at time.Duration) error {
	if _, ok := m.cfg.Dir.Record(failed); !ok {
		return fmt.Errorf("failover: killing unknown user %v", failed)
	}
	if m.killed[failed.Key()] {
		return fmt.Errorf("failover: user %v is already scheduled to fail", failed)
	}
	m.killed[failed.Key()] = true
	net := m.cfg.Dir.Network()
	m.cfg.Sim.At(at, func(crashAt time.Duration) {
		m.dead[failed.Key()] = true
		// Owners that hold the failed user at the moment of the crash.
		// Computing them here (not at Kill-call time) matters under
		// overlapping failures: a repair running between the Kill call
		// and the crash can move the record into tables the original
		// scan never saw. Owners that are themselves already dead
		// cannot ping and are skipped.
		owners := slices.DeleteFunc(m.cfg.Dir.Holders(failed),
			func(id ident.ID) bool { return m.dead[id.Key()] })

		serverEvicted := false
		for _, owner := range owners {
			owner := owner
			rec, _ := m.cfg.Dir.Record(owner)
			// The owner's first ping after the crash happens at the next
			// phase-aligned tick; detection takes Misses such ticks, plus
			// one RTT worth of timeout slack.
			firstPing := nextTick(crashAt, m.phase[owner.Key()], m.cfg.PingInterval)
			detectAt := firstPing + time.Duration(m.cfg.Misses-1)*m.cfg.PingInterval +
				2*net.AccessRTT(rec.Host) // timeout slack
			m.cfg.Sim.At(detectAt, func(now time.Duration) {
				if m.dead[owner.Key()] {
					return // the detector itself crashed in the window
				}
				m.report.PingsLost += m.cfg.Misses
				// First detector's notification evicts the user from the
				// key server's membership view.
				m.report.Notifications++
				if !serverEvicted {
					serverEvicted = true
					if err := m.cfg.Dir.Evict(failed); err != nil {
						// Already evicted via another failure path; the
						// notification is simply redundant.
						_ = err
					}
				}
				if row, col, ok := m.cfg.Dir.RemoveNeighbor(owner, failed); ok {
					m.report.RepairMessages += m.cfg.Dir.RepairEntryLive(owner, row, col, m.Alive)
				}
				m.report.Detections = append(m.report.Detections, Detection{
					Owner:      owner,
					Failed:     failed,
					FailedAt:   crashAt,
					DetectedAt: now,
				})
			})
		}
	})
	return nil
}

// EvictIfDead force-evicts a user that crashed but was never evicted
// because every owner that could have detected it died first (or it had
// no owners at crash time). The key server notices such users itself
// when they stop acknowledging rekey messages; soak harnesses call this
// at interval boundaries as that backstop. It reports whether an
// eviction happened.
func (m *Monitor) EvictIfDead(id ident.ID) bool {
	if !m.dead[id.Key()] {
		return false
	}
	if _, ok := m.cfg.Dir.Record(id); !ok {
		return false
	}
	if err := m.cfg.Dir.Evict(id); err != nil {
		return false
	}
	return true
}

// nextTick returns the first phase-aligned ping time at or after t.
func nextTick(t, phase, interval time.Duration) time.Duration {
	if t <= phase {
		return phase
	}
	n := (t - phase + interval - 1) / interval
	return phase + n*interval
}

// WorstCaseDetection bounds detection latency: a full ping interval of
// phase offset plus Misses-1 further intervals plus timeout slack.
func WorstCaseDetection(cfg Config, maxAccessRTT time.Duration) time.Duration {
	return time.Duration(cfg.Misses)*cfg.PingInterval + 2*maxAccessRTT
}
