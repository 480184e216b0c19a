package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tmesh/internal/obs"
)

// FaultPlan is the shared, mutable fault schedule a chaos driver edits
// while traffic flows. One plan is shared by every endpoint in a soak
// so a partition or a kill is seen consistently from both sides.
//
// Frame-level faults (loss, delay, partition, kill) act inside the
// WithFaults wrapper; connection-level faults (dial refusal, forced
// reset) are consulted by the TCP link goroutine via Config.Faults,
// because only the dialer can refuse its own dial.
//
// All methods are safe for concurrent use. Randomness is seeded, so a
// single-threaded driver replays the same fault decisions.
type FaultPlan struct {
	mu        sync.Mutex
	rng       *rand.Rand
	loss      float64
	delayProb float64
	delayMin  time.Duration
	delayMax  time.Duration
	killed    map[PeerID]bool
	side      map[PeerID]int
	split     bool
	refusals  map[PeerID]int
	resets    map[PeerID]int
}

// NewFaultPlan creates an empty plan (no faults) with a seeded RNG.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		rng:      rand.New(rand.NewSource(seed)),
		killed:   make(map[PeerID]bool),
		side:     make(map[PeerID]int),
		refusals: make(map[PeerID]int),
		resets:   make(map[PeerID]int),
	}
}

// SetLoss sets the independent per-frame drop probability.
func (f *FaultPlan) SetLoss(p float64) {
	f.mu.Lock()
	f.loss = p
	f.mu.Unlock()
}

// SetDelay makes a fraction prob of frames wait a uniform draw from
// [min, max] before delivery (a delay spike, not reordering-free).
func (f *FaultPlan) SetDelay(prob float64, min, max time.Duration) {
	f.mu.Lock()
	f.delayProb, f.delayMin, f.delayMax = prob, min, max
	if f.delayMax < f.delayMin {
		f.delayMax = f.delayMin
	}
	f.mu.Unlock()
}

// Kill makes a peer unreachable in both directions until Restore.
func (f *FaultPlan) Kill(id PeerID) {
	f.mu.Lock()
	f.killed[id] = true
	f.mu.Unlock()
}

// Restore undoes Kill.
func (f *FaultPlan) Restore(id PeerID) {
	f.mu.Lock()
	delete(f.killed, id)
	f.mu.Unlock()
}

// Killed reports whether a peer is currently killed.
func (f *FaultPlan) Killed(id PeerID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed[id]
}

// Partition splits the world: peers in sideB are cut from everyone
// else (unlisted peers implicitly join side A). Frames crossing the
// cut drop until HealPartition.
func (f *FaultPlan) Partition(sideB []PeerID) {
	f.mu.Lock()
	f.side = make(map[PeerID]int, len(sideB))
	for _, id := range sideB {
		f.side[id] = 1
	}
	f.split = true
	f.mu.Unlock()
}

// HealPartition reconnects both sides.
func (f *FaultPlan) HealPartition() {
	f.mu.Lock()
	f.split = false
	f.side = make(map[PeerID]int)
	f.mu.Unlock()
}

// RefuseDials makes the next n dial attempts to peer id fail with
// ErrDialRefused (consulted by the TCP dialer).
func (f *FaultPlan) RefuseDials(id PeerID, n int) {
	f.mu.Lock()
	f.refusals[id] = n
	f.mu.Unlock()
}

// ResetConns makes the next n sends on the link to peer id tear the
// connection down as if the peer reset it (consulted by the TCP link).
func (f *FaultPlan) ResetConns(id PeerID, n int) {
	f.mu.Lock()
	f.resets[id] = n
	f.mu.Unlock()
}

func (f *FaultPlan) refuseDial(id PeerID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refusals[id] > 0 {
		f.refusals[id]--
		return true
	}
	return false
}

func (f *FaultPlan) resetConn(id PeerID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resets[id] > 0 {
		f.resets[id]--
		return true
	}
	return false
}

// frameFault is one decision for a frame from a to b.
type frameFault struct {
	drop  bool
	why   string // "loss" | "partition" | "kill"
	delay time.Duration
}

// judge decides a frame's fate. Kill and partition hold for a frame's
// whole life; the loss coin and the delay are drawn only when draw is
// set, which the sender does once per frame: the receive side and a
// delayed frame's delivery re-check the cut and draw nothing.
func (f *FaultPlan) judge(from, to PeerID, draw bool) frameFault {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.killed[from] || f.killed[to]:
		return frameFault{drop: true, why: "kill"}
	case f.split && f.side[from] != f.side[to]:
		return frameFault{drop: true, why: "partition"}
	case !draw:
		return frameFault{}
	}
	if f.loss > 0 && f.rng.Float64() < f.loss {
		return frameFault{drop: true, why: "loss"}
	}
	if f.delayProb > 0 && f.rng.Float64() < f.delayProb {
		d := f.delayMin
		if span := f.delayMax - f.delayMin; span > 0 {
			d += time.Duration(f.rng.Int63n(int64(span) + 1))
		}
		return frameFault{delay: d}
	}
	return frameFault{}
}

// FaultStats is the wrapper's explicit loss accounting: every frame
// the fault layer eats is attributed to a cause.
type FaultStats struct {
	DroppedLoss      uint64
	DroppedPartition uint64
	DroppedKill      uint64
	Delayed          uint64
}

// Faulty wraps a Transport and applies a FaultPlan's frame-level
// faults on both the send and receive paths; everything else is the
// wrapped endpoint's. Dropped frames return a nil Send error — the
// caller sent into lossy weather, exactly like a real network — but
// every drop is counted.
type Faulty struct {
	Transport
	plan *FaultPlan

	droppedLoss, droppedPartition, droppedKill, delayed atomic.Uint64
	obsLoss, obsPartition, obsKill, obsDelayed          *obs.Counter

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// WithFaults wraps inner so every frame consults plan. reg may be nil.
func WithFaults(inner Transport, plan *FaultPlan, reg *obs.Registry) *Faulty {
	return &Faulty{
		Transport:    inner,
		plan:         plan,
		obsLoss:      reg.Counter("fault_dropped_loss"),
		obsPartition: reg.Counter("fault_dropped_partition"),
		obsKill:      reg.Counter("fault_dropped_kill"),
		obsDelayed:   reg.Counter("fault_delayed"),
		done:         make(chan struct{}),
	}
}

func (f *Faulty) count(why string) {
	switch why {
	case "loss":
		f.droppedLoss.Add(1)
		f.obsLoss.Inc()
	case "partition":
		f.droppedPartition.Add(1)
		f.obsPartition.Inc()
	case "kill":
		f.droppedKill.Add(1)
		f.obsKill.Inc()
	}
}

// Stats snapshots the fault accounting.
func (f *Faulty) Stats() FaultStats {
	return FaultStats{
		DroppedLoss:      f.droppedLoss.Load(),
		DroppedPartition: f.droppedPartition.Load(),
		DroppedKill:      f.droppedKill.Load(),
		Delayed:          f.delayed.Load(),
	}
}

// Send implements Transport, applying kill/partition/loss/delay on the
// way out.
func (f *Faulty) Send(to PeerID, frame []byte) error {
	v := f.plan.judge(f.ID(), to, true)
	if v.drop {
		f.count(v.why)
		return nil
	}
	if v.delay > 0 {
		f.delayed.Add(1)
		f.obsDelayed.Inc()
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return ErrClosed
		}
		f.wg.Add(1)
		f.mu.Unlock()
		go func() {
			defer f.wg.Done()
			select {
			case <-f.done:
				// Closing beats delivery; the frame dies counted as a
				// kill-class drop (the endpoint is gone).
				f.droppedKill.Add(1)
				f.obsKill.Inc()
			case <-time.After(v.delay):
				// A partition or kill that started during the delay
				// still applies.
				v2 := f.plan.judge(f.ID(), to, false)
				if v2.drop {
					f.count(v2.why)
					return
				}
				f.Transport.Send(to, frame)
			}
		}()
		return nil
	}
	return f.Transport.Send(to, frame)
}

// SetHandler implements Transport: the handler is shielded so frames
// from killed or partitioned senders are eaten on arrival too (the
// far side of a cut may not share this plan's view for an instant;
// double-filtering keeps the cut airtight).
func (f *Faulty) SetHandler(h Handler) {
	self := f.ID()
	f.Transport.SetHandler(func(from PeerID, frame []byte) {
		v := f.plan.judge(from, self, false)
		if v.drop {
			f.count(v.why)
			return
		}
		h(from, frame)
	})
}

// Close implements Transport: waits for in-flight delayed frames.
func (f *Faulty) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	close(f.done)
	f.wg.Wait()
	return f.Transport.Close()
}
