package chaos

import (
	"fmt"
	"strings"
	"time"

	"tmesh/internal/metrics"
	"tmesh/internal/workload"
)

// IntervalStats is the audited record of one rekey interval, and — in
// field order, under the JSON names below — the body of the interval's
// -metrics-out record. Every field is derived from the deterministic
// simulation (counts, virtual times), so seed-identical soaks emit
// byte-identical streams; wall-clock durations stay in the registry.
type IntervalStats struct {
	Index   int `json:"interval"`
	Members int `json:"members"` // group size at audit time

	Joins           int  `json:"joins"`
	Leaves          int  `json:"leaves"`
	Crashes         int  `json:"crashes"`
	LeaderKills     int  `json:"leader_kills"`
	Burst           bool `json:"burst,omitempty"`
	PartitionDomain int  `json:"partition_domain"` // isolated transit domain, -1 when none
	Spike           bool `json:"spike,omitempty"`

	RekeyCost int `json:"rekey_cost"` // encryptions in the interval's rekey message

	// Data multicast (Theorem 1 probe).
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

func (s *IntervalStats) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "interval %02d: members=%d join=%d leave=%d crash=%d leaderkill=%d",
		s.Index, s.Members, s.Joins, s.Leaves, s.Crashes, s.LeaderKills)
	if s.Burst {
		b.WriteString(" burst")
	}
	if s.PartitionDomain >= 0 {
		fmt.Fprintf(&b, " partition=%d", s.PartitionDomain)
	}
	if s.Spike {
		b.WriteString(" spike")
	}
	fmt.Fprintf(&b, " | rekey=%d data=%d/%d key=%d/%d/%d attempts=%d retries=%d backoff=%v",
		s.RekeyCost, s.DataDelivered, s.DataDelivered+s.DataLost,
		s.KeyByMulticast, s.KeyByUnicast, s.KeyByResync,
		s.UnicastAttempts, s.Retries, s.MaxBackoff)
	if len(s.Violations) == 0 {
		b.WriteString(" | OK")
	} else {
		fmt.Fprintf(&b, " | VIOLATIONS=%d", len(s.Violations))
	}
	return b.String()
}

// Report is the outcome of one soak session. Two runs with the same
// configuration produce byte-identical String() output; tests assert
// this, so nothing time-of-day- or map-order-dependent may leak in.
type Report struct {
	Seed      int64
	Intervals []IntervalStats

	// Auditors maps registry order to auditor names (not a map, to keep
	// output canonical).
	Auditors []string

	TotalEvents   uint64
	PastClamps    uint64
	FinalMembers  int
	OrphanEvicted int // dead users reaped by the interval-boundary backstop

	// Soak-wide delivery-delay percentiles (milliseconds), estimated by
	// the constant-memory streaming summaries rather than by retaining
	// every sample: DataDelayMS covers data-probe copies, KeyDelayMS
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
			return firstIntervals(r.Schedule, i+1)
		}
	}
	if len(r.FinalViolations) > 0 {
		return r.Schedule
	}
	return nil
}

// firstIntervals returns the events of a schedule's first n soak
// intervals.
func firstIntervals(s *workload.Schedule, n int) *workload.Schedule {
	return workload.NewSchedule(s.Cursor().Next(time.Duration(n) * intervalLength))
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
	fmt.Fprintf(&b, "chaos soak seed=%d intervals=%d auditors=%s\n",
		r.Seed, len(r.Intervals), strings.Join(r.Auditors, ","))
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
