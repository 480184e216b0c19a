package recovery

import (
	"fmt"
	"time"
)

// Rung identifies which step of the ladder delivered the key.
type Rung int

const (
	ByMulticast Rung = iota
	ByUnicast
	ByResync
)

func (r Rung) String() string {
	switch r {
	case ByMulticast:
		return "multicast"
	case ByUnicast:
		return "unicast"
	case ByResync:
		return "resync"
	default:
		return fmt.Sprintf("rung(%d)", int(r))
	}
}

// Policy is the ladder's numbers, stated once: the simulator's
// DistributeLadder and the socket daemon's rekeyd.Server both step
// through it, so the two drivers cannot disagree on a schedule.
type Policy struct {
	// Timeout is how long the multicast is given before unicast
	// recovery starts.
	Timeout time.Duration
	// RetryBase and RetryMax shape the spacing of unicast attempts:
	// attempt n is given min(RetryBase << (n-1), RetryMax).
	RetryBase, RetryMax time.Duration
	// RetryBudget is the number of unicast attempts before the chain
	// falls back to a full resync (>= 1).
	RetryBudget int
	// ResyncBudget is the number of resync transmissions, each given
	// RetryMax, before the member is declared dead in flight. Zero
	// means the resync channel is reliable (the simulator's TCP-like
	// session): the rung is taken once and never waited on.
	ResyncBudget int
}

// Validate rejects a policy whose ladder could not be walked.
func (p Policy) Validate() error {
	switch {
	case p.Timeout <= 0:
		return fmt.Errorf("recovery: Timeout must be positive, got %v", p.Timeout)
	case p.RetryBudget < 1:
		return fmt.Errorf("recovery: RetryBudget must be >= 1, got %d", p.RetryBudget)
	case p.RetryBase <= 0 || p.RetryMax < p.RetryBase:
		return fmt.Errorf("recovery: bad backoff range [%v, %v]", p.RetryBase, p.RetryMax)
	}
	return nil
}

// Backoff is the wait unicast attempt n (1-based; lower values read as
// 1) is given: min(RetryBase << (n-1), RetryMax).
func (p Policy) Backoff(n int) time.Duration {
	if n < 1 {
		n = 1
	}
	d := p.RetryMax
	if shift := n - 1; shift < 63 {
		d = p.RetryBase << shift
	}
	if d > p.RetryMax || d <= 0 { // <= 0: the shift overflowed
		d = p.RetryMax
	}
	return d
}

// Step is a position on the ladder: the rung in flight and its 1-based
// attempt. The zero Step is the multicast itself.
type Step struct {
	Rung    Rung
	Attempt int
}

// Next returns the step that follows a step that went unanswered:
// multicast → unicast 1..RetryBudget → resync 1..ResyncBudget (once on
// a reliable channel). ok is false when the ladder has run dry and the
// member is dead in flight.
func (p Policy) Next(s Step) (next Step, ok bool) {
	switch {
	case s.Rung == ByMulticast:
		return Step{ByUnicast, 1}, true
	case s.Rung == ByUnicast && s.Attempt < p.RetryBudget:
		return Step{ByUnicast, s.Attempt + 1}, true
	case s.Rung == ByUnicast:
		return Step{ByResync, 1}, true
	case s.Attempt < p.ResyncBudget:
		return Step{ByResync, s.Attempt + 1}, true
	}
	return Step{}, false
}

// Wait is how long a step is given to be answered before Next is taken.
func (p Policy) Wait(s Step) time.Duration {
	switch {
	case s.Rung == ByMulticast:
		return p.Timeout
	case s.Rung == ByUnicast:
		return p.Backoff(s.Attempt)
	case p.ResyncBudget == 0:
		return 0
	}
	return p.RetryMax
}

// Worst is the longest one member's chain can be waited on: the sum of
// Wait over every step Next can reach. Delivery legs (round trips) are
// the driver's to add.
func (p Policy) Worst() time.Duration {
	var total time.Duration
	for s, ok := (Step{}), true; ok; s, ok = p.Next(s) {
		total += p.Wait(s)
	}
	return total
}
