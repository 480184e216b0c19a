// Package eventsim implements the discrete event-driven simulation engine
// that drives every experiment, mirroring the authors' methodology: "we
// wrote our own discrete event-driven simulator; we simulate the sending
// and the reception of a message as events".
//
// The engine maintains a virtual clock and a priority queue of events.
// Handlers run sequentially in timestamp order, so simulated protocol code
// needs no synchronisation. Ties are broken by scheduling order, making
// runs fully deterministic under a fixed workload seed.
package eventsim

import (
	"container/heap"
	"time"
)

// Handler is the code executed when an event fires. It runs with the
// simulator clock set to the event's timestamp and may schedule further
// events.
type Handler func(now time.Duration)

type event struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  Handler
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Simulator is a single-threaded discrete event engine. The zero value is
// not usable; construct with New.
type Simulator struct {
	queue       eventQueue
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
	if at < s.now {
		at = s.now
		s.pastClamped++
	}
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
	s.seq++
}

// Run executes events until the queue drains or Stop is called. It
// returns the number of events processed by this call.
func (s *Simulator) Run() uint64 {
	return s.RunUntil(-1)
}

// RunUntil executes events with timestamps <= deadline (all events if
// deadline is negative) until the queue drains or Stop is called. The
// clock is left at the last executed event, or advanced to the deadline if
// the deadline is reached with events still pending.
func (s *Simulator) RunUntil(deadline time.Duration) uint64 {
	if s.running {
		panic("eventsim: RunUntil called re-entrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	var n uint64
	for len(s.queue) > 0 && !s.stopped {
		next := s.queue[0]
		if deadline >= 0 && next.at > deadline {
			s.now = deadline
			return n
		}
		heap.Pop(&s.queue)
		s.now = next.at
		s.processed++
		n++
		next.fn(s.now)
	}
	return n
}

// Stop halts Run/RunUntil after the current handler returns. Pending
// events remain queued.
func (s *Simulator) Stop() { s.stopped = true }
