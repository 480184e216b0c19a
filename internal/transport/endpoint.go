package transport

import (
	"sync"
	"sync/atomic"

	"tmesh/internal/obs"
)

// endpoint is the core every wire embeds: the peer table, the Send
// gate, loss and overflow accounting, the live-state gauges, receive
// dispatch, Status, and the close sequence. A wire (Loopback, UDP, TCP)
// keeps only what differs — where frames queue, how they are written,
// its read pump, TCP's redial machine — so a robustness rule changed
// here changes on all three at once. L is the wire's per-peer state.
type endpoint[L any] struct {
	id      PeerID
	handler atomic.Value // Handler; read pumps never lock
	ctr     counters

	mu     sync.RWMutex
	peers  map[PeerID]*peer[L]
	closed bool

	// done stops the wire's pumps, which register on wg.
	done chan struct{}
	wg   sync.WaitGroup
}

// peer is one registered peer: the accounting behind Status, its
// locator, and whatever the wire keeps per peer.
type peer[L any] struct {
	state                              atomic.Int32
	sent, received, dropped, overflows atomic.Uint64
	dials, redials                     atomic.Uint64
	lastErr                            atomic.Value // string
	id                                 PeerID
	addr                               string
	link                               L
}

// counters is the obs instrument set of one endpoint; nil-safe like
// everything in internal/obs.
type counters struct {
	sent, received, dropped, overflow, redials *obs.Counter
	// stateG[s] gauges how many registered peers currently sit in link
	// state s (transport_peers_down/dialing/up/redialing/closed), kept
	// balanced by addPeer/setState/retire. queueDepth gauges the frames
	// currently held in this endpoint's bounded queues, kept by their
	// push and pop. Under a Send racing a RemovePeer of the same peer the
	// state gauges may momentarily drift; they are live ops signals, never
	// inputs to anything deterministic.
	stateG     [StateClosed + 1]*obs.Gauge
	queueDepth *obs.Gauge
}

func (e *endpoint[L]) init(cfg *Config) {
	e.id = cfg.ID
	e.peers = make(map[PeerID]*peer[L])
	e.done = make(chan struct{})
	reg := cfg.Obs
	e.ctr = counters{
		sent:       reg.Counter("transport_sent"),
		received:   reg.Counter("transport_received"),
		dropped:    reg.Counter("transport_dropped"),
		overflow:   reg.Counter("transport_overflow"),
		redials:    reg.Counter("transport_redials"),
		queueDepth: reg.Gauge("transport_queue_depth"),
	}
	for s := StateDown; s <= StateClosed; s++ {
		e.ctr.stateG[s] = reg.Gauge("transport_peers_" + s.String())
	}
}

// ID implements Transport.
func (e *endpoint[L]) ID() PeerID { return e.id }

// SetHandler implements Transport.
func (e *endpoint[L]) SetHandler(h Handler) { e.handler.Store(h) }

// Status implements Transport.
func (e *endpoint[L]) Status(id PeerID) (Status, bool) {
	e.mu.RLock()
	p, ok := e.peers[id]
	e.mu.RUnlock()
	if !ok {
		return Status{}, false
	}
	st := Status{
		State:     State(p.state.Load()),
		Addr:      p.addr,
		Sent:      p.sent.Load(),
		Received:  p.received.Load(),
		Dropped:   p.dropped.Load(),
		Overflows: p.overflows.Load(),
		Dials:     p.dials.Load(),
		Redials:   p.redials.Load(),
	}
	st.LastErr, _ = p.lastErr.Load().(string)
	return st, true
}

// addPeer is the shared half of AddPeer. It registers id at addr in
// state initial, with the per-peer state link builds (under the table
// lock, so a link goroutine started there cannot race a RemovePeer).
// Re-registering at the same locator is a no-op; at a new one the old
// registration is returned for the wire to stop and retire.
func (e *endpoint[L]) addPeer(id PeerID, addr string, initial State, link func(*peer[L]) L) (replaced *peer[L], err error) {
	if len(id) == 0 || len(id) > MaxPeerID {
		return nil, ErrUnknownPeer
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if old, ok := e.peers[id]; ok {
		if old.addr == addr {
			return nil, nil
		}
		replaced = old
	}
	p := &peer[L]{id: id, addr: addr}
	p.state.Store(int32(initial))
	e.ctr.stateG[initial].Add(1)
	if link != nil {
		p.link = link(p)
	}
	e.peers[id] = p
	return replaced, nil
}

// removePeer forgets a peer and hands it to the caller to retire.
func (e *endpoint[L]) removePeer(id PeerID) *peer[L] {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.peers[id]
	delete(e.peers, id)
	return p
}

// RemovePeer implements Transport for wires with nothing per peer to
// stop.
func (e *endpoint[L]) RemovePeer(id PeerID) {
	if p := e.removePeer(id); p != nil {
		e.retire(p)
	}
}

// retire takes forgotten peers out of the state gauges.
func (e *endpoint[L]) retire(peers ...*peer[L]) {
	for _, p := range peers {
		e.ctr.stateG[State(p.state.Swap(int32(StateClosed)))].Add(-1)
	}
}

// setState moves a registered peer to s, keeping the per-state
// population gauges balanced.
func (e *endpoint[L]) setState(p *peer[L], s State) {
	if old := State(p.state.Swap(int32(s))); old != s {
		e.ctr.stateG[old].Add(-1)
		e.ctr.stateG[s].Add(1)
	}
}

// gate is the front of every Send: an oversize frame, a closed endpoint
// and an unknown peer are refused before anything is queued or counted.
func (e *endpoint[L]) gate(to PeerID, frame []byte) (*peer[L], error) {
	if len(frame) > MaxFrame {
		return nil, ErrFrameTooBig
	}
	e.mu.RLock()
	p, known := e.peers[to]
	closed := e.closed
	e.mu.RUnlock()
	switch {
	case closed:
		return nil, ErrClosed
	case !known:
		return nil, ErrUnknownPeer
	}
	return p, nil
}

// sentTo accounts a frame handed to the network.
func (e *endpoint[L]) sentTo(p *peer[L]) {
	p.sent.Add(1)
	e.ctr.sent.Inc()
}

// drop accounts a frame lost after the gate — nothing is ever dropped
// silently. p is nil when the loss cannot be attributed to a peer; err,
// when non-nil, becomes the peer's LastErr.
func (e *endpoint[L]) drop(p *peer[L], err error) {
	e.ctr.dropped.Inc()
	if p == nil {
		return
	}
	p.dropped.Add(1)
	if err != nil {
		p.lastErr.Store(err.Error())
	}
}

// overflow accounts a frame refused because a bounded queue was full.
func (e *endpoint[L]) overflow(p *peer[L]) error {
	p.overflows.Add(1)
	e.ctr.overflow.Inc()
	return ErrQueueFull
}

// queue is the bounded FIFO behind every wire's send path: the UDP
// send queue, the loopback inbox, each TCP link's queue. Its storage is
// a ring that doubles with use up to the bound and keeps its high-water
// capacity, so an idle queue holds no slots and a busy one allocates
// nothing in steady state. push never blocks; the one pump pops through
// next, parked on wake (one token, posted after every push). depth is
// the endpoint's transport_queue_depth gauge.
type queue[T any] struct {
	mu             sync.Mutex
	ring           []T
	head, n, bound int
	wake           chan struct{}
	depth          *obs.Gauge
}

func (q *queue[T]) init(bound int, depth *obs.Gauge) {
	q.bound, q.depth, q.wake = bound, depth, make(chan struct{}, 1)
}

// push appends v; false means the queue already holds its bound.
func (q *queue[T]) push(v T) bool {
	q.mu.Lock()
	if q.n == len(q.ring) {
		if q.n == q.bound {
			q.mu.Unlock()
			return false
		}
		ring := make([]T, min(max(2*q.n, 8), q.bound)) // unwrapped
		copy(ring, q.ring[q.head:])
		copy(ring[q.n-q.head:], q.ring[:q.head])
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = v
	q.n++
	q.depth.Add(1)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default: // a token is already waiting
	}
	return true
}

// pop takes the oldest item; false when the queue is empty.
func (q *queue[T]) pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return v, false
	}
	var zero T
	v, q.ring[q.head] = q.ring[q.head], zero // keep no popped frame alive
	q.head, q.n = (q.head+1)%len(q.ring), q.n-1
	q.depth.Add(-1)
	return v, true
}

// next is the pump's pop: the oldest item, parking on wake while the
// queue is empty; false once stop is closed. It pops before it parks,
// so what was queued while the pump was away (a TCP link redialing)
// flushes without waiting for another push.
func (q *queue[T]) next(stop <-chan struct{}) (v T, ok bool) {
	for {
		select {
		case <-stop:
			return v, false
		default:
		}
		if v, ok = q.pop(); ok {
			return v, true
		}
		select {
		case <-stop:
			return v, false
		case <-q.wake:
		}
	}
}

// enqueue offers a frame for p to one of the wire's bounded send
// queues. It never blocks: a full queue is an overflow.
func enqueue[L, T any](e *endpoint[L], p *peer[L], q *queue[T], v T) error {
	if !q.push(v) {
		return e.overflow(p)
	}
	return nil
}

// drain empties a queue nobody pumps any more, dropping every frame
// still in it with accounting against owner(v) (nil: unattributable).
func drain[L, T any](e *endpoint[L], q *queue[T], owner func(T) *peer[L]) {
	for v, ok := q.pop(); ok; v, ok = q.pop() {
		e.drop(owner(v), nil)
	}
}

// dispatch is the back of every read pump: decode the envelope,
// attribute the frame to its in-band sender, hand it to the handler.
// The handler owns env's payload bytes. The sender's PeerID is its
// registered peer's when it has one, else *last, the newest
// unregistered sender this pump saw, so neither a registered sender nor
// a repeat costs a string; each pump owns its last. dispatch reports
// false for a malformed or oversize envelope (a stream wire closes the
// connection); a frame that arrives with no handler registered is
// dropped, counted.
func (e *endpoint[L]) dispatch(env []byte, last *PeerID) bool {
	sender, payload, err := decodeEnvelope(env)
	if err != nil || len(payload) > MaxFrame {
		e.ctr.dropped.Inc()
		return false
	}
	h, _ := e.handler.Load().(Handler)
	if h == nil {
		e.ctr.dropped.Inc()
		return true
	}
	e.mu.RLock()
	p := e.peers[PeerID(sender)]
	e.mu.RUnlock()
	from := *last
	switch {
	case p != nil:
		p.received.Add(1)
		from = p.id
	case string(from) != string(sender):
		from = PeerID(sender)
		*last = from
	}
	e.ctr.received.Inc()
	h(from, payload)
	return true
}

// shut starts Close: it marks the endpoint closed, forgets every peer
// and signals the pumps. The wire then stops its sockets, waits on wg,
// drains its queues and retires the returned peers. ok is false when
// the endpoint was already closed (Close is idempotent).
func (e *endpoint[L]) shut() (peers []*peer[L], ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, false
	}
	e.closed = true
	for _, p := range e.peers {
		peers = append(peers, p)
	}
	e.peers = nil
	close(e.done)
	return peers, true
}
