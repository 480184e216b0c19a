package transport

import (
	"sync"
)

// Switch is the in-process loopback fabric: a registry of endpoints
// keyed by PeerID. It preserves the Transport contract exactly — the
// same envelope bytes, the same bounded-queue overflow accounting, a
// real goroutine pump per endpoint — so protocol code tested on the
// switch moves to UDP/TCP without change, and the faulty wrapper can
// inject loss/partition between endpoints that share a process.
type Switch struct {
	mu        sync.RWMutex
	endpoints map[PeerID]*Loopback
}

// NewSwitch creates an empty loopback fabric.
func NewSwitch() *Switch {
	return &Switch{endpoints: make(map[PeerID]*Loopback)}
}

func (s *Switch) attach(l *Loopback) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.endpoints[l.id]; ok {
		return ErrDuplicatePeer
	}
	s.endpoints[l.id] = l
	return nil
}

func (s *Switch) detach(id PeerID) {
	s.mu.Lock()
	delete(s.endpoints, id)
	s.mu.Unlock()
}

func (s *Switch) lookup(id PeerID) *Loopback {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.endpoints[id]
}

// Loopback is one endpoint on a Switch. Frames enqueue into the
// *receiver's* bounded inbox (so a slow receiver overflows its own
// queue, mirroring a full socket buffer) and a single pump goroutine
// drains the inbox into the handler.
type Loopback struct {
	endpoint[struct{}]
	sw    *Switch
	inbox queue[[]byte] // envelopes
}

// NewLoopback attaches a new endpoint to the switch.
func NewLoopback(sw *Switch, cfg Config) (*Loopback, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	l := &Loopback{sw: sw}
	l.init(&cfg)
	l.inbox.init(cfg.Queue, l.ctr.queueDepth)
	if err := sw.attach(l); err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.pump()
	return l, nil
}

func (l *Loopback) pump() {
	defer l.wg.Done()
	var last PeerID
	for {
		env, ok := l.inbox.next(l.done)
		if !ok {
			return
		}
		l.dispatch(env, &last)
	}
}

// deliver enqueues an envelope into this endpoint's inbox; false means
// the inbox was full or the endpoint closed (the sender accounts it).
func (l *Loopback) deliver(env []byte) bool {
	select {
	case <-l.done:
		return false
	default:
	}
	return l.inbox.push(env)
}

// Addr implements Transport: on the switch, the identity is the
// locator.
func (l *Loopback) Addr() string { return string(l.id) }

// AddPeer implements Transport. Routing goes through the switch by ID,
// so the locator is the ID whatever addr says.
func (l *Loopback) AddPeer(id PeerID, addr string) error {
	_, err := l.addPeer(id, string(id), StateUp, nil)
	return err
}

// Send implements Transport, copying the frame once: the handler owns it.
func (l *Loopback) Send(to PeerID, frame []byte) error {
	p, err := l.gate(to, frame)
	if err != nil {
		return err
	}
	dst := l.sw.lookup(to)
	if dst == nil {
		// Registered but not attached (peer killed): the frame is
		// dropped with accounting, like a datagram to a dead host.
		l.drop(p, nil)
		l.setState(p, StateDown)
		return nil
	}
	if !dst.deliver(appendEnvelope(make([]byte, 0, 1+len(l.id)+len(frame)), l.id, frame)) {
		return l.overflow(p)
	}
	l.sentTo(p)
	l.setState(p, StateUp)
	return nil
}

// Close implements Transport: detaches from the switch and stops the
// pump. Frames still queued in the inbox are dropped with accounting.
func (l *Loopback) Close() error {
	peers, ok := l.shut()
	if !ok {
		return nil
	}
	l.sw.detach(l.id)
	l.wg.Wait()
	drain(&l.endpoint, &l.inbox, func([]byte) *peer[struct{}] { return nil })
	l.retire(peers...)
	return nil
}
