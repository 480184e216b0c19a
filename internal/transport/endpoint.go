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
	// currently held in this endpoint's bounded queues, incremented at
	// enqueue and decremented when a pump drains (or a close drops) the
	// frame. Under a Send racing a RemovePeer of the same peer the state
	// gauges may momentarily drift; they are live ops signals, never
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
	p := &peer[L]{addr: addr}
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

// enqueue offers a frame for p to one of the wire's bounded send
// queues. It never blocks: a full queue is an overflow.
func enqueue[L, T any](e *endpoint[L], p *peer[L], q chan<- T, v T) error {
	select {
	case q <- v:
		e.ctr.queueDepth.Add(1)
		return nil
	default:
		return e.overflow(p)
	}
}

// drain empties a queue nobody pumps any more, dropping every frame
// still in it with accounting against owner(v) (nil: unattributable).
func drain[L, T any](e *endpoint[L], q <-chan T, owner func(T) *peer[L]) {
	for {
		select {
		case v := <-q:
			e.ctr.queueDepth.Add(-1)
			e.drop(owner(v), nil)
		default:
			return
		}
	}
}

// dispatch is the back of every read pump: decode the envelope,
// attribute the frame to its in-band sender, hand it to the handler.
// The handler owns env's payload bytes. It reports false for a
// malformed or oversize envelope (a stream wire closes the connection);
// a frame that arrives with no handler registered is dropped, counted.
func (e *endpoint[L]) dispatch(env []byte) bool {
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
	p := e.peers[sender]
	e.mu.RUnlock()
	if p != nil {
		p.received.Add(1)
	}
	e.ctr.received.Inc()
	h(sender, payload)
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
