package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// netConn is the slice of net.Conn the TCP transport actually uses;
// tests inject in-memory pipes and deliberately stalled conns through
// Config.Dial.
type netConn interface {
	io.ReadWriteCloser
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

func defaultDial(addr string, timeout time.Duration) (netConn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return c.(netConn), nil
}

// TCP is the stream transport. Connections are asymmetric by design:
// this endpoint *writes* only on connections it dialed (one per peer,
// owned by that peer's link goroutine) and *reads* only on connections
// peers dialed to it (one read pump per accepted conn). Identity still
// travels in-band in every envelope, so the accept side never needs to
// map a remote address back to a PeerID.
//
// Each link runs the redial state machine:
//
//	Down ──AddPeer──▶ Dialing ──ok──▶ Up
//	                     │fail            │write error / reset
//	                     ▼                ▼
//	                 Redialing ◀──────────┘
//	                     │ wait min(Base<<(n-1), Max) ± jitter, redial
//	                     └──ok──▶ Up   (failure count resets)
//
// The backoff waits go through the injectable Clock, so tests pin the
// exact schedule. A write error never retransmits the frame — it is
// dropped with accounting and the *connection* is retried, keeping
// transport retries and recovery-ladder retries from compounding.
type TCP struct {
	endpoint[*tcpLink]
	cfg      Config
	listener net.Listener
	addr     string // the bound listener address, fixed for its life
	dial     DialFunc

	acceptMu sync.Mutex
	accepted map[net.Conn]struct{}
}

// tcpLink is the wire's per-peer state: the bounded queue Send fills
// and the link goroutine that owns the socket and drains it.
type tcpLink struct {
	sendq queue[[]byte] // frames, enveloped by the link goroutine
	stop  chan struct{}
	wg    sync.WaitGroup
}

type tcpPeer = peer[*tcpLink]

// NewTCP binds a listener on listenAddr and starts the accept loop.
func NewTCP(listenAddr string, cfg Config) (*TCP, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Backoff.Base <= 0 || cfg.Backoff.Max < cfg.Backoff.Base {
		cfg.Backoff = DefaultBackoff() // TCP's redial is its only reader
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen tcp %q: %w", listenAddr, err)
	}
	t := &TCP{
		cfg:      cfg,
		listener: ln,
		addr:     ln.Addr().String(),
		dial:     cfg.Dial,
		accepted: make(map[net.Conn]struct{}),
	}
	t.init(&cfg)
	if t.dial == nil {
		t.dial = defaultDial
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // Close closed the listener
			}
			continue
		}
		t.acceptMu.Lock()
		select {
		case <-t.done:
			// Close already swept the accepted set: a conn slipping in
			// behind the sweep would hold Close for a full readIdle.
			conn.Close()
		default:
			t.accepted[conn] = struct{}{}
		}
		t.acceptMu.Unlock()
		t.wg.Add(1)
		go t.readPump(conn)
	}
}

// readPump drains one accepted connection: 4-byte length, envelope,
// dispatch. Any framing violation or idle timeout closes the conn —
// the dialer on the far side owns reestablishment.
func (t *TCP) readPump(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.acceptMu.Lock()
		delete(t.accepted, conn)
		t.acceptMu.Unlock()
	}()
	hdr := make([]byte, 4)
	var last PeerID
	for {
		conn.SetReadDeadline(time.Now().Add(readIdle))
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		n, err := streamFrameLen(hdr)
		if err != nil {
			t.drop(nil, nil)
			return
		}
		env := make([]byte, n)
		conn.SetReadDeadline(time.Now().Add(readIdle))
		if _, err := io.ReadFull(conn, env); err != nil {
			return
		}
		if !t.dispatch(env, &last) {
			return
		}
	}
}

// Addr implements Transport: the bound listener address.
func (t *TCP) Addr() string { return t.addr }

// AddPeer implements Transport: registers the peer and starts its link
// goroutine, which dials eagerly and redials forever with backoff.
func (t *TCP) AddPeer(id PeerID, addr string) error {
	old, err := t.addPeer(id, addr, StateDown, func(p *tcpPeer) *tcpLink {
		l := &tcpLink{stop: make(chan struct{})}
		l.sendq.init(t.cfg.Queue, t.ctr.queueDepth)
		l.wg.Add(1)
		go t.runLink(id, p, l)
		return l
	})
	if old != nil {
		t.unlink(old)
	}
	return err
}

// RemovePeer implements Transport.
func (t *TCP) RemovePeer(id PeerID) {
	if p := t.removePeer(id); p != nil {
		t.unlink(p)
	}
}

// Send implements Transport: enqueues onto the peer link's bounded
// queue. The link goroutine owns the socket; a down link still accepts
// queued frames until the queue fills (they flush on reconnect).
func (t *TCP) Send(to PeerID, frame []byte) error {
	p, err := t.gate(to, frame)
	if err != nil {
		return err
	}
	return enqueue(&t.endpoint, p, &p.link.sendq, frame)
}

// Close implements Transport: stops the accept loop, every read pump,
// and every link goroutine before returning.
func (t *TCP) Close() error {
	peers, ok := t.shut()
	if !ok {
		return nil
	}
	t.listener.Close()
	t.acceptMu.Lock()
	for conn := range t.accepted {
		conn.Close()
	}
	t.acceptMu.Unlock()
	for _, p := range peers {
		t.unlink(p)
	}
	t.wg.Wait()
	return nil
}

// unlink stops a forgotten peer's link goroutine and waits for it;
// queued frames are dropped with accounting.
func (t *TCP) unlink(p *tcpPeer) {
	close(p.link.stop)
	p.link.wg.Wait()
	drain(&t.endpoint, &p.link.sendq, func([]byte) *tcpPeer { return p })
	t.retire(p)
}

// lostConn accounts the frame in flight when a connection died and
// puts the link back into redial.
func (t *TCP) lostConn(p *tcpPeer, conn netConn, err error) {
	t.drop(p, err)
	conn.Close()
	p.redials.Add(1)
	t.ctr.redials.Inc()
	t.setState(p, StateRedialing)
}

// runLink is the link goroutine: the dial/redial state machine plus the
// write loop. It exits only on unlink.
func (t *TCP) runLink(id PeerID, p *tcpPeer, l *tcpLink) {
	defer l.wg.Done()
	cfg := &t.cfg
	var conn netConn
	hdr := appendEnvelope(make([]byte, 4, 5+len(t.id)), t.id, nil)
	var vec [2][]byte
	var iov net.Buffers // one gathered write per frame: headers, then frame
	failures := 0
	for {
		// Establish (or reestablish) the connection.
		for conn == nil {
			if failures == 0 {
				t.setState(p, StateDialing) // later attempts are already Redialing
			}
			c, err := t.dialOnce(id, p)
			if err == nil {
				conn = c
				failures = 0
				t.setState(p, StateUp)
				break
			}
			p.lastErr.Store(err.Error())
			failures++
			if failures > 1 {
				p.redials.Add(1)
				t.ctr.redials.Inc()
			}
			t.setState(p, StateRedialing)
			select {
			case <-l.stop:
				return
			case <-cfg.Clock.After(cfg.Backoff.Delay(failures)):
			}
		}

		// next pops before it parks, so frames queued while the link
		// was down flush now, without waiting for another Send.
		frame, ok := l.sendq.next(l.stop)
		if !ok {
			conn.Close()
			return
		}
		if cfg.Faults != nil && cfg.Faults.resetConn(id) {
			// Injected connection reset: the frame is lost with
			// accounting and the link goes back through redial.
			t.lostConn(p, conn, fmt.Errorf("transport: injected connection reset"))
			conn, failures = nil, 1
			continue
		}
		binary.BigEndian.PutUint32(hdr, uint32(len(hdr)-4+len(frame)))
		iov = append(vec[:0], hdr, frame)
		conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		if _, err := iov.WriteTo(conn); err != nil {
			// The frame is gone (partial writes poison the stream
			// anyway); count it, drop the conn, redial.
			t.lostConn(p, conn, err)
			conn, failures = nil, 1
			continue
		}
		t.sentTo(p)
	}
}

func (t *TCP) dialOnce(id PeerID, p *tcpPeer) (netConn, error) {
	p.dials.Add(1)
	if t.cfg.Faults != nil && t.cfg.Faults.refuseDial(id) {
		return nil, ErrDialRefused
	}
	return t.dial(p.addr, dialTimeout)
}
