package chaos

import (
	"fmt"
	"strings"
	"time"

	"tmesh/internal/metrics"
	"tmesh/internal/recovery"
	"tmesh/internal/workload"
)

// IntervalStats is the audited record of one rekey interval, and — in
// field order, under the JSON names below — the body of the interval's
// -metrics-out record. Every field is derived from the deterministic
// simulation (counts, virtual times), so seed-identical soaks emit
// byte-identical streams; wall-clock durations stay in the registry.
type IntervalStats struct {
	Index   int    `json:"interval"`
	Phase   string `json:"phase,omitempty"` // the socket wire's fault phase
	Members int    `json:"members"`         // group size at audit time

	Joins           int  `json:"joins"`
	Leaves          int  `json:"leaves"`
	Crashes         int  `json:"crashes"`
	LeaderKills     int  `json:"leader_kills"`
	Kills           int  `json:"kills,omitempty"` // members the socket wire cut off, not evicted
	Burst           bool `json:"burst,omitempty"`
	PartitionDomain int  `json:"partition_domain"` // isolated transit domain, -1 when none
	Spike           bool `json:"spike,omitempty"`

	RekeyCost int `json:"rekey_cost"` // encryptions in the interval's rekey message

	// Theorem 1 copy counts: of the simulator's data probe, of the socket
	// wire's rekey message in its clean phase.
	DataDelivered int `json:"data_delivered"`
	DataLost      int `json:"data_lost"`

	// Key distribution rungs (degradation ladder). LadderRung names the
	// deepest rung that delivered a key ("none" when nobody was owed
	// one); ForwardedEncs totals the encryptions members forwarded on
	// the multicast rung.
	KeyByMulticast  int           `json:"key_by_multicast"`
	KeyByUnicast    int           `json:"key_by_unicast"`
	KeyByResync     int           `json:"key_by_resync"`
	UnicastAttempts int           `json:"unicast_attempts"`
	ResyncSends     int           `json:"resync_sends,omitempty"` // the socket wire's budgeted resyncs
	Retries         int           `json:"retries"`
	DeadInFlight    int           `json:"dead_in_flight"`
	MaxBackoff      time.Duration `json:"max_backoff_ns"`
	LadderRung      string        `json:"ladder_rung"`
	ForwardedEncs   int           `json:"forwarded_encryptions"`

	// Violations lists invariant failures caught by the audit, in
	// registry order. Empty means the interval is green. (The stream
	// carries them per auditor instead.)
	Violations []string `json:"-"`
}

// record copies the auditors' outcome over the interval's evidence into
// the record: the copy and rung tallies, the deepest rung that delivered
// a key, the failed verdicts, and the ladder's own counts as its driver
// booked them. Both wires close an interval here.
func (s *IntervalStats) record(ev *Evidence, verdicts []Verdict, c Counts) {
	s.DataDelivered, s.DataLost = c.CopiesDelivered, c.CopiesLost
	s.KeyByMulticast = c.ByRung[recovery.ByMulticast]
	s.KeyByUnicast = c.ByRung[recovery.ByUnicast]
	s.KeyByResync = c.ByRung[recovery.ByResync]
	s.LadderRung = "none"
	switch {
	case s.KeyByResync > 0:
		s.LadderRung = "resync"
	case s.KeyByUnicast > 0:
		s.LadderRung = "unicast"
	case s.KeyByMulticast > 0:
		s.LadderRung = "multicast"
	}
	if l := ev.Ladder; l != nil {
		s.UnicastAttempts, s.Retries, s.MaxBackoff = l.UnicastAttempts, l.Retries, l.MaxBackoff
		s.DeadInFlight = len(l.DeadInFlight)
	}
	for _, v := range verdicts {
		if line := v.Line(); line != "" {
			s.Violations = append(s.Violations, line)
		}
	}
}

func (s *IntervalStats) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "interval %02d:", s.Index)
	if s.Phase != "" {
		fmt.Fprintf(&b, " phase=%s", s.Phase)
	}
	fmt.Fprintf(&b, " members=%d join=%d leave=%d crash=%d leaderkill=%d",
		s.Members, s.Joins, s.Leaves, s.Crashes, s.LeaderKills)
	if s.Kills > 0 {
		fmt.Fprintf(&b, " kill=%d", s.Kills)
	}
	if s.Burst {
		b.WriteString(" burst")
	}
	if s.PartitionDomain >= 0 {
		fmt.Fprintf(&b, " partition=%d", s.PartitionDomain)
	}
	if s.Spike {
		b.WriteString(" spike")
	}
	fmt.Fprintf(&b, " | rekey=%d data=%d/%d key=%d/%d/%d attempts=%d",
		s.RekeyCost, s.DataDelivered, s.DataDelivered+s.DataLost,
		s.KeyByMulticast, s.KeyByUnicast, s.KeyByResync, s.UnicastAttempts)
	if s.ResyncSends > 0 {
		fmt.Fprintf(&b, " resyncs=%d", s.ResyncSends)
	}
	fmt.Fprintf(&b, " retries=%d backoff=%v", s.Retries, s.MaxBackoff)
	if len(s.Violations) == 0 {
		b.WriteString(" | OK")
	} else {
		fmt.Fprintf(&b, " | VIOLATIONS=%d", len(s.Violations))
	}
	return b.String()
}

// Report is the outcome of one soak session, on either wire. Two
// simulator runs with the same configuration produce byte-identical
// String() output; tests assert this, so nothing time-of-day- or
// map-order-dependent may leak in. The socket wire's rung counts follow
// real scheduler timing, and the summary lines it does not measure read
// zero.
type Report struct {
	Seed int64
	// Transport names the socket wire's fabric; empty on the simulator.
	Transport string
	Intervals []IntervalStats

	// Auditors maps registry order to auditor names (not a map, to keep
	// output canonical).
	Auditors []string

	TotalEvents   uint64
	PastClamps    uint64
	FinalMembers  int
	OrphanEvicted int // dead users reaped by the interval-boundary backstop

	// Soak-wide delivery-delay percentiles (milliseconds), nearest-rank
	// over every sample: DataDelayMS covers data-probe copies, KeyDelayMS
	// covers key deliveries across all ladder rungs.
	DataDelayMS metrics.Summary
	KeyDelayMS  metrics.Summary

	// SLOOK/SLOWarn/SLOPage count the per-boundary verdicts of the SLO
	// engine, which always runs over deterministic inputs, so the totals
	// byte-compare across telemetry on/off and parallelism settings.
	SLOOK, SLOWarn, SLOPage int

	// FinalViolations holds failures of the end-of-run full sweep.
	FinalViolations []string

	// Schedule is the membership the run executed, every victim resolved
	// to its host: replayed under the same Config it reproduces the
	// report.
	Schedule *workload.Schedule
}

// Reproducer returns the recorded schedule through the first interval
// with a violation (all of it when only the final sweep failed), nil
// for a green run.
func (r *Report) Reproducer() *workload.Schedule {
	for i := range r.Intervals {
		if len(r.Intervals[i].Violations) > 0 {
			return workload.NewSchedule(r.Schedule.Cursor().Next(time.Duration(i+1) * intervalLength))
		}
	}
	if len(r.FinalViolations) > 0 {
		return r.Schedule
	}
	return nil
}

// TotalViolations counts invariant failures across all intervals plus
// the final sweep.
func (r *Report) TotalViolations() int {
	n := len(r.FinalViolations)
	for i := range r.Intervals {
		n += len(r.Intervals[i].Violations)
	}
	return n
}

// String renders the canonical soak report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak seed=%d intervals=%d auditors=%s",
		r.Seed, len(r.Intervals), strings.Join(r.Auditors, ","))
	if r.Transport != "" {
		fmt.Fprintf(&b, " transport=%s", r.Transport)
	}
	b.WriteByte('\n')
	for i := range r.Intervals {
		b.WriteString(r.Intervals[i].line())
		b.WriteByte('\n')
		for _, v := range r.Intervals[i].Violations {
			fmt.Fprintf(&b, "  violation: %s\n", v)
		}
	}
	fmt.Fprintf(&b, "delay_ms: data n=%d p50=%.3f p95=%.3f max=%.3f | key n=%d p50=%.3f p95=%.3f max=%.3f\n",
		r.DataDelayMS.N, r.DataDelayMS.Median, r.DataDelayMS.P95, r.DataDelayMS.Max,
		r.KeyDelayMS.N, r.KeyDelayMS.Median, r.KeyDelayMS.P95, r.KeyDelayMS.Max)
	fmt.Fprintf(&b, "slo: ok=%d warn=%d page=%d\n", r.SLOOK, r.SLOWarn, r.SLOPage)
	fmt.Fprintf(&b, "final: members=%d events=%d past_clamps=%d orphans=%d violations=%d\n",
		r.FinalMembers, r.TotalEvents, r.PastClamps, r.OrphanEvicted, r.TotalViolations())
	for _, v := range r.FinalViolations {
		fmt.Fprintf(&b, "  final violation: %s\n", v)
	}
	return b.String()
}
