package grouphost

import (
	"fmt"
	"strings"
)

// Report is the outcome of one grouphost run.
type Report struct {
	Seed      int64
	StaggerNS int64
	// PoolWidth is the fan-out width the run started at (work.Width()).
	// It is diagnostic only and deliberately absent from String(): the
	// determinism tests byte-compare reports across widths.
	PoolWidth int
	Groups    []GroupReport
}

// GroupReport is one tenant's deterministic summary.
type GroupReport struct {
	Name    string
	Profile string
	// Intervals is the number of rekey boundaries processed.
	Intervals int
	// Joins and Leaves count applied membership changes.
	Joins, Leaves int
	// TotalCost and MaxCost aggregate rekey message costs (Definition 1
	// units: encryptions carried).
	TotalCost int64
	MaxCost   int
	// FinalMembers is the membership when the schedule drained.
	FinalMembers int
	// KeyringDigest folds the final membership and every member's group
	// key (plus the server's) into one value, so comparing reports
	// compares final keyrings.
	KeyringDigest uint64
	// Audits counts invariant checks run (five per interval);
	// Violations holds every failure as "interval N: auditor: detail".
	Violations []string
	Audits     int
	// SLOOK/SLOWarn/SLOPage count the per-boundary SLO verdicts. The
	// engine's inputs are deterministic, so these belong in String()
	// and must byte-compare across widths like everything else.
	SLOOK, SLOWarn, SLOPage int
}

// Violations returns the total violation count across groups.
func (r *Report) Violations() int {
	n := 0
	for i := range r.Groups {
		n += len(r.Groups[i].Violations)
	}
	return n
}

// SLOPages returns the total paging boundaries across groups; the
// tenancy soak gates on zero.
func (r *Report) SLOPages() int {
	n := 0
	for i := range r.Groups {
		n += r.Groups[i].SLOPage
	}
	return n
}

// String renders the canonical report. It must remain a pure function
// of the per-group deterministic state: the multi-group determinism
// tests byte-compare this string across widths, order seeds, and
// staggers, so PoolWidth and StaggerNS stay out.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "grouphost seed=%d groups=%d\n", r.Seed, len(r.Groups))
	for i := range r.Groups {
		g := &r.Groups[i]
		fmt.Fprintf(&b, "%s[%s]: intervals=%d joins=%d leaves=%d members=%d cost=%d max=%d keyrings=%016x audits=%d violations=%d slo=ok:%d/warn:%d/page:%d\n",
			g.Name, g.Profile, g.Intervals, g.Joins, g.Leaves, g.FinalMembers,
			g.TotalCost, g.MaxCost, g.KeyringDigest, g.Audits, len(g.Violations),
			g.SLOOK, g.SLOWarn, g.SLOPage)
		for _, v := range g.Violations {
			fmt.Fprintf(&b, "  ! %s\n", v)
		}
	}
	return b.String()
}
