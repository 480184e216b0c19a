package core

import (
	"errors"
	"fmt"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
	"tmesh/internal/workload"
)

// SessionConfig drives a long-running group through a workload schedule
// with periodic batch rekeying (see Session).
type SessionConfig struct {
	// Group is the group to drive; it must be freshly created.
	Group *Group
	// Schedule is the join/leave workload (see Session for the host
	// mapping).
	Schedule *workload.Schedule
	// Interval is the rekey interval length.
	Interval time.Duration
	// OnInterval, when non-nil, observes each interval's rekey message
	// and transport report right after distribution.
	OnInterval func(interval int, msg *keytree.Message, rep *split.Report)
}

// SessionStats summarises a session.
type SessionStats struct {
	// Intervals is the number of rekey intervals processed.
	Intervals int
	// Joins and Leaves are the totals applied.
	Joins, Leaves int
	// TotalRekeyCost sums the encryptions of all rekey messages.
	TotalRekeyCost int
	// PeakRekeyCost is the largest single interval.
	PeakRekeyCost int
	// FinalSize is the group size at the end.
	FinalSize int
}

// Session replays a workload schedule against a Group — the paper's
// operational model: "the key server processes the join and leave
// requests during a rekey interval as a batch, and generates a batch
// rekey message at the end of the rekey interval". The caller picks the
// boundaries: Advance applies the events before one, EndInterval closes
// the batch. Schedule host index i joins at network host ServerHost+1+i,
// so groups sharing one topology each sit in the block after their key
// server.
type Session struct {
	g     *Group
	sched *workload.Schedule
	next  int              // first event not yet applied
	idOf  map[int]ident.ID // schedule host index -> assigned ID
	stats SessionStats
}

// NewSession starts replaying sched against g.
func NewSession(g *Group, sched *workload.Schedule) *Session {
	return &Session{g: g, sched: sched, idOf: make(map[int]ident.ID)}
}

// Advance applies, in time order, every event strictly before until: an
// event exactly on a boundary belongs to the interval after it.
func (s *Session) Advance(until time.Duration) error {
	for ; s.next < len(s.sched.Events) && s.sched.Events[s.next].At < until; s.next++ {
		ev := s.sched.Events[s.next]
		switch ev.Kind {
		case workload.Join:
			id, _, err := s.g.Join(s.g.cfg.ServerHost+1+vnet.HostID(ev.Host), ev.At)
			if err != nil {
				return fmt.Errorf("core: join of schedule host %d: %w", ev.Host, err)
			}
			s.idOf[ev.Host] = id
			s.stats.Joins++
		case workload.Leave:
			id, ok := s.idOf[ev.Victim]
			if !ok {
				return fmt.Errorf("core: leave of never-joined host %d", ev.Victim)
			}
			if err := s.g.Leave(id); err != nil {
				return fmt.Errorf("core: leave of %v: %w", id, err)
			}
			delete(s.idOf, ev.Victim)
			s.stats.Leaves++
		default:
			return fmt.Errorf("core: unknown event kind %d", ev.Kind)
		}
	}
	return nil
}

// Done reports whether every event of the schedule has been applied.
func (s *Session) Done() bool { return s.next == len(s.sched.Events) }

// EndInterval closes the current rekey interval: the batch is processed
// and its message distributed, unless the group is empty or no churn
// reached the tree (cost 0), in which case the report is nil.
func (s *Session) EndInterval() (*keytree.Message, *split.Report, error) {
	s.stats.Intervals++
	msg, err := s.g.ProcessInterval()
	if err != nil {
		return nil, nil, err
	}
	s.stats.TotalRekeyCost += msg.Cost()
	s.stats.PeakRekeyCost = max(s.stats.PeakRekeyCost, msg.Cost())
	if s.g.Size() == 0 || msg.Cost() == 0 {
		return msg, nil, nil
	}
	rep, err := s.g.DistributeRekey(msg)
	if err != nil {
		return nil, nil, err
	}
	return msg, rep, nil
}

// Stats returns the session's totals so far.
func (s *Session) Stats() SessionStats {
	st := s.stats
	st.FinalSize = s.g.Size()
	return st
}

// RunSession replays the whole schedule, closing an interval at every
// multiple of Interval until the last event has been batched, and
// returns the session statistics.
func RunSession(cfg SessionConfig) (*SessionStats, error) {
	if cfg.Group == nil || cfg.Schedule == nil {
		return nil, errors.New("core: Group and Schedule are required")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("core: Interval must be positive, got %v", cfg.Interval)
	}
	s := NewSession(cfg.Group, cfg.Schedule)
	for end := cfg.Interval; ; end += cfg.Interval {
		if err := s.Advance(end); err != nil {
			return nil, err
		}
		msg, rep, err := s.EndInterval()
		if err != nil {
			return nil, fmt.Errorf("core: interval ending %v: %w", end, err)
		}
		if cfg.OnInterval != nil {
			cfg.OnInterval(s.stats.Intervals, msg, rep)
		}
		if s.Done() {
			break
		}
	}
	stats := s.Stats()
	return &stats, nil
}
