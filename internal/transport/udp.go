package transport

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"time"
)

// maxDatagram bounds one UDP frame (envelope included). Rekey slices
// are packetized well below this; anything larger must take TCP.
const maxDatagram = 60 * 1024

// UDP is the datagram transport: one bound socket, peers located by
// host:port, identity carried in-band by the envelope (the source
// address is never used for attribution — NATs and rebinding would
// lie). Sends flow through a bounded queue drained by one writer
// goroutine; there is no connection state to redial, so links report
// StateUp once registered and datagram loss is the ladder's problem.
type UDP struct {
	endpoint[*net.UDPAddr]
	conn  *net.UDPConn
	addr  string // the bound host:port, fixed for the socket's life
	sendq queue[udpSend]
}

type udpSend struct {
	peer  *peer[*net.UDPAddr]
	frame []byte
}

// NewUDP binds listenAddr ("127.0.0.1:0" for an ephemeral test port)
// and starts the read pump and writer.
func NewUDP(listenAddr string, cfg Config) (*UDP, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	la, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("transport: listen udp %q: %w", listenAddr, err)
	}
	u := &UDP{conn: conn, addr: conn.LocalAddr().String()}
	u.init(&cfg)
	u.sendq.init(cfg.Queue, u.ctr.queueDepth)
	u.wg.Add(2)
	go u.readPump()
	go u.writePump(cfg.WriteTimeout)
	return u, nil
}

func (u *UDP) readPump() {
	defer u.wg.Done()
	buf := make([]byte, maxDatagram+1)
	var last PeerID
	for {
		// No read deadline: Close closes done before the socket, and the
		// closed socket unblocks this read. Read: the envelope names the
		// sender, and ReadFromUDP's address would cost an allocation.
		n, err := u.conn.Read(buf)
		select {
		case <-u.done:
			return
		default:
		}
		switch {
		case err != nil: // a transient socket error
		case n > maxDatagram:
			u.drop(nil, nil)
		default:
			// The handler owns its frame; buf is reused on the next read.
			u.dispatch(bytes.Clone(buf[:n]), &last)
		}
	}
}

func (u *UDP) writePump(writeTimeout time.Duration) {
	defer u.wg.Done()
	var env []byte // the datagram scratch, grown with use
	for {
		s, ok := u.sendq.next(u.done)
		if !ok {
			return
		}
		env = appendEnvelope(env[:0], u.id, s.frame)
		u.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := u.conn.WriteToUDP(env, s.peer.link); err != nil {
			u.drop(s.peer, err)
			continue
		}
		u.sentTo(s.peer)
	}
}

// Addr implements Transport: the bound host:port.
func (u *UDP) Addr() string { return u.addr }

// AddPeer implements Transport. A literal ip:port is parsed in place
// and kept as given, so re-registering at the same locator builds
// nothing; only a host name goes through the resolver, and its
// locator is the address it resolved to.
func (u *UDP) AddPeer(id PeerID, addr string) error {
	var ua *net.UDPAddr
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		if ua, err = net.ResolveUDPAddr("udp", addr); err != nil {
			return fmt.Errorf("transport: resolve peer %q at %q: %w", id, addr, err)
		}
		addr = ua.String()
	}
	old, err := u.addPeer(id, addr, StateUp, func(*peer[*net.UDPAddr]) *net.UDPAddr {
		if ua == nil {
			ua = net.UDPAddrFromAddrPort(ap)
		}
		return ua
	})
	if old != nil {
		u.retire(old)
	}
	return err
}

// Send implements Transport.
func (u *UDP) Send(to PeerID, frame []byte) error {
	p, err := u.gate(to, frame)
	if err != nil {
		return err
	}
	if 1+len(u.id)+len(frame) > maxDatagram {
		u.drop(p, nil)
		return ErrFrameTooBig
	}
	return enqueue(&u.endpoint, p, &u.sendq, udpSend{peer: p, frame: frame})
}

// Close implements Transport. Queued-but-unwritten frames are dropped
// with accounting.
func (u *UDP) Close() error {
	peers, ok := u.shut()
	if !ok {
		return nil
	}
	u.conn.Close()
	u.wg.Wait()
	drain(&u.endpoint, &u.sendq, func(s udpSend) *peer[*net.UDPAddr] { return s.peer })
	u.retire(peers...)
	return nil
}
