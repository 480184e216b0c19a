package recovery

import (
	"slices"
	"time"

	"tmesh/internal/ident"
)

// Outcome is how one interval's keys reached the members the server
// owed them: the one record both ladder drivers, DistributeLadder and
// the socket daemon's rekeyd.Server, book through the methods below,
// and the one the soak auditors read. Who was owed is not in it: the
// auditors take that set from the plane, so a member the ladder never
// picked up shows as owed with no rung.
type Outcome struct {
	// RungOf is, per member key, the rung that settled the member (on
	// the socket: the highest rung in flight when its ack arrived), and
	// DeliveredAt when, in virtual time on the simulator (the socket
	// books 0: nothing there reads it yet).
	RungOf      map[string]Rung
	DeliveredAt map[string]time.Duration
	// Resynced lists the members the resync rung settled, DeadInFlight
	// those the ladder gave up on; both in ID order after Finish.
	Resynced, DeadInFlight []ident.ID
	// UnicastAttempts counts recovery unicasts sent, lost or not;
	// Retries those beyond each member's first.
	UnicastAttempts, Retries int
	// MaxBackoff is the longest unicast wait that expired, BackoffCap
	// the policy's ceiling on it (0: unknown).
	MaxBackoff, BackoffCap time.Duration
}

// Settle books a member as settled at a rung at time at.
func (o *Outcome) Settle(id ident.ID, rung Rung, at time.Duration) {
	if o.RungOf == nil {
		o.RungOf, o.DeliveredAt = make(map[string]Rung), make(map[string]time.Duration)
	}
	o.RungOf[id.Key()], o.DeliveredAt[id.Key()] = rung, at
	if rung == ByResync {
		o.Resynced = append(o.Resynced, id)
	}
}

// Sent books unicast attempt n (1-based).
func (o *Outcome) Sent(n int) {
	o.UnicastAttempts++
	if n > 1 {
		o.Retries++
	}
}

// Expired books a unicast wait that ran out unanswered.
func (o *Outcome) Expired(wait time.Duration) { o.MaxBackoff = max(o.MaxBackoff, wait) }

// Dead books a member the ladder gave up on.
func (o *Outcome) Dead(id ident.ID) { o.DeadInFlight = append(o.DeadInFlight, id) }

// Rungs tallies the settled members per rung.
func (o *Outcome) Rungs() map[Rung]int {
	out := make(map[Rung]int, 3)
	for _, rung := range o.RungOf {
		out[rung]++
	}
	return out
}

// Finish sorts what the drivers book in completion order; call it once
// the ladder has run.
func (o *Outcome) Finish() {
	slices.SortFunc(o.Resynced, ident.ID.Compare)
	slices.SortFunc(o.DeadInFlight, ident.ID.Compare)
}
