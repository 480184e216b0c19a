// Package eventsim implements the discrete event-driven simulation engine
// that drives every experiment, mirroring the authors' methodology: "we
// wrote our own discrete event-driven simulator; we simulate the sending
// and the reception of a message as events".
//
// The engine maintains a virtual clock and a priority queue of events.
// Handlers run sequentially in timestamp order, so simulated protocol code
// needs no synchronisation. Ties are broken by scheduling order: events
// pop in the total order (time, scheduling sequence), so runs are fully
// deterministic under a fixed workload seed. The clock only advances: an
// event requested before Now runs at Now, and RunUntil never moves the
// clock back to an earlier deadline.
//
// The queue is a binary heap of events held by value: once it has grown,
// At and AtArg allocate nothing beyond the caller's handler.
package eventsim

import "time"

// Handler is the code executed when an event fires. It runs with the
// simulator clock set to the event's timestamp and may schedule further
// events.
type Handler func(now time.Duration)

// event is one queued callback: fn, or argFn called with arg.
type event struct {
	at    time.Duration
	seq   uint64 // tie-breaker: FIFO among equal timestamps
	fn    Handler
	argFn func(now time.Duration, arg int)
	arg   int
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Simulator is a single-threaded discrete event engine. The zero value is
// not usable; construct with New.
type Simulator struct {
	queue       []event // binary min-heap under event.before
	now         time.Duration
	seq         uint64
	processed   uint64
	pastClamped uint64
	running     bool
	stopped     bool
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Pending returns the number of events still queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// PastClamps returns the number of events whose requested time preceded
// the clock and were clamped to now by At.
func (s *Simulator) PastClamps() uint64 { return s.pastClamped }

// At schedules fn to run at the given absolute virtual time. A time
// that precedes the current clock is clamped to now — fault injectors
// routinely schedule relative to stale timestamps (e.g. a crash time
// observed before a detection advanced the clock), and a hard panic
// would make every injector defend itself; the clamp keeps the queue
// ordered and PastClamps exposes how often it happened.
func (s *Simulator) At(at time.Duration, fn Handler) {
	s.push(event{at: at, fn: fn})
}

// AtArg is At for a handler that takes an integer argument: fn(now, arg)
// runs at the given time. One fn shared across events, with arg naming
// the caller's record, schedules without building a closure per event.
func (s *Simulator) AtArg(at time.Duration, fn func(now time.Duration, arg int), arg int) {
	s.push(event{at: at, argFn: fn, arg: arg})
}

// push clamps ev to the clock, stamps its sequence and sifts it up.
func (s *Simulator) push(ev event) {
	if ev.at < s.now {
		ev.at = s.now
		s.pastClamped++
	}
	ev.seq = s.seq
	s.seq++
	s.queue = append(s.queue, ev)
	q := s.queue
	for i, p := len(q)-1, (len(q)-2)/2; i > 0 && q[i].before(&q[p]); i, p = p, (p-1)/2 {
		q[i], q[p] = q[p], q[i]
	}
}

// pop removes the earliest event; the last one sifts down from the root.
func (s *Simulator) pop() event {
	q := s.queue
	top, n := q[0], len(q)-1
	q[0], q[n] = q[n], event{} // the zeroed tail drops its handler
	q = q[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
	}
	s.queue = q
	return top
}

// Run executes events until the queue drains or Stop is called. It
// returns the number of events processed by this call.
func (s *Simulator) Run() uint64 {
	return s.RunUntil(-1)
}

// RunUntil executes events with timestamps <= deadline (all events if
// deadline is negative) until the queue drains or Stop is called. The
// clock is left at the last executed event or, if the deadline is
// reached with events still pending, at max(Now, deadline): a deadline
// already in the past runs nothing and leaves the clock where it is.
func (s *Simulator) RunUntil(deadline time.Duration) uint64 {
	if s.running {
		panic("eventsim: RunUntil called re-entrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	var n uint64
	for len(s.queue) > 0 && !s.stopped {
		if deadline >= 0 && s.queue[0].at > deadline {
			s.now = max(s.now, deadline)
			return n
		}
		next := s.pop()
		s.now = next.at
		s.processed++
		n++
		if next.fn != nil {
			next.fn(s.now)
		} else {
			next.argFn(s.now, next.arg)
		}
	}
	return n
}

// Stop halts Run/RunUntil after the current handler returns. Pending
// events remain queued.
func (s *Simulator) Stop() { s.stopped = true }
