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
	sendq chan udpSend
}

type udpSend struct {
	peer *peer[*net.UDPAddr]
	env  []byte
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
	u := &UDP{conn: conn, addr: conn.LocalAddr().String(), sendq: make(chan udpSend, cfg.Queue)}
	u.init(&cfg)
	u.wg.Add(2)
	go u.readPump()
	go u.writePump(cfg.WriteTimeout)
	return u, nil
}

func (u *UDP) readPump() {
	defer u.wg.Done()
	buf := make([]byte, maxDatagram+1)
	for {
		// A periodic deadline lets the pump observe done without an
		// extra close/read race dance; Close also unblocks the read by
		// closing the socket.
		u.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, _, err := u.conn.ReadFromUDP(buf)
		select {
		case <-u.done:
			return
		default:
		}
		switch {
		case err != nil: // deadline tick, or a transient socket error
		case n > maxDatagram:
			u.drop(nil, nil)
		default:
			// The handler owns its frame; buf is reused on the next read.
			u.dispatch(bytes.Clone(buf[:n]))
		}
	}
}

func (u *UDP) writePump(writeTimeout time.Duration) {
	defer u.wg.Done()
	for {
		select {
		case <-u.done:
			return
		case s := <-u.sendq:
			u.ctr.queueDepth.Add(-1)
			u.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := u.conn.WriteToUDP(s.env, s.peer.link); err != nil {
				u.drop(s.peer, err)
				continue
			}
			u.sentTo(s.peer)
		}
	}
}

// Addr implements Transport: the bound host:port.
func (u *UDP) Addr() string { return u.addr }

// AddPeer implements Transport. A literal ip:port is parsed in place;
// only a host name goes through the resolver.
func (u *UDP) AddPeer(id PeerID, addr string) error {
	var ua *net.UDPAddr
	if ap, err := netip.ParseAddrPort(addr); err == nil {
		ua = net.UDPAddrFromAddrPort(ap)
	} else if ua, err = net.ResolveUDPAddr("udp", addr); err != nil {
		return fmt.Errorf("transport: resolve peer %q at %q: %w", id, addr, err)
	}
	old, err := u.addPeer(id, ua.String(), StateUp, func(*peer[*net.UDPAddr]) *net.UDPAddr { return ua })
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
	env := encodeEnvelope(u.id, frame)
	if len(env) > maxDatagram {
		u.drop(p, nil)
		return ErrFrameTooBig
	}
	return enqueue(&u.endpoint, p, u.sendq, udpSend{peer: p, env: env})
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
	drain(&u.endpoint, u.sendq, func(s udpSend) *peer[*net.UDPAddr] { return s.peer })
	u.retire(peers...)
	return nil
}
