package transport

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tmesh/internal/obs"
)

// guardGoroutines snapshots the goroutine count and returns a check to
// defer after all transports are closed: redial loops, read pumps, and
// delay timers must all have terminated.
func guardGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after close\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// collector is a threadsafe receive sink.
type collector struct {
	mu     sync.Mutex
	frames []received
}

type received struct {
	from  PeerID
	frame []byte
}

func (c *collector) handler() Handler {
	return func(from PeerID, frame []byte) {
		cp := make([]byte, len(frame))
		copy(cp, frame)
		c.mu.Lock()
		c.frames = append(c.frames, received{from, cp})
		c.mu.Unlock()
	}
}

func (c *collector) has(from PeerID, frame []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.frames {
		if r.from == from && bytes.Equal(r.frame, frame) {
			return true
		}
	}
	return false
}

// waitDelivered sends frame to `to` until the collector sees it.
// Resending makes the check robust to the (legal) datagram drop on a
// saturated local UDP socket; receivers dedupe by content here.
func waitDelivered(t *testing.T, tr Transport, to PeerID, from PeerID, frame []byte, c *collector) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := tr.Send(to, frame); err != nil && err != ErrQueueFull {
			t.Fatalf("Send(%q): %v", to, err)
		}
		settle := time.Now().Add(100 * time.Millisecond)
		for time.Now().Before(settle) {
			if c.has(from, frame) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		if time.Now().After(deadline) {
			t.Fatalf("frame from %q never delivered to handler", from)
		}
	}
}

// newPair builds two connected endpoints of the given kind and returns
// them plus a cleanup closing both.
func newPair(t *testing.T, kind string) (a, b Transport) {
	t.Helper()
	switch kind {
	case "loopback":
		sw := NewSwitch()
		la, err := NewLoopback(sw, Config{ID: "A"})
		if err != nil {
			t.Fatal(err)
		}
		lb, err := NewLoopback(sw, Config{ID: "B"})
		if err != nil {
			t.Fatal(err)
		}
		a, b = la, lb
	case "udp":
		ua, err := NewUDP("127.0.0.1:0", Config{ID: "A"})
		if err != nil {
			t.Fatal(err)
		}
		ub, err := NewUDP("127.0.0.1:0", Config{ID: "B"})
		if err != nil {
			t.Fatal(err)
		}
		a, b = ua, ub
	case "tcp":
		ta, err := NewTCP("127.0.0.1:0", Config{ID: "A"})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := NewTCP("127.0.0.1:0", Config{ID: "B"})
		if err != nil {
			t.Fatal(err)
		}
		a, b = ta, tb
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err := a.AddPeer("B", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("A", a.Addr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

var kinds = []string{"loopback", "udp", "tcp"}

// TestConformanceRoundtrip exercises the shared Transport contract on
// all three implementations: frames flow both ways with the sender
// identity attributed in-band, counters account for the traffic, and
// Close leaks no goroutines.
func TestConformanceRoundtrip(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			check := guardGoroutines(t)
			a, b := newPair(t, kind)
			var ca, cb collector
			a.SetHandler(ca.handler())
			b.SetHandler(cb.handler())

			if a.ID() != "A" || b.ID() != "B" {
				t.Fatalf("IDs: %q %q", a.ID(), b.ID())
			}
			payload1 := []byte("rekey-interval-7")
			payload2 := []byte("ack-interval-7")
			waitDelivered(t, a, "B", "A", payload1, &cb)
			waitDelivered(t, b, "A", "B", payload2, &ca)

			st, ok := a.Status("B")
			if !ok {
				t.Fatal("Status(B) unknown")
			}
			if st.Sent == 0 {
				t.Fatalf("A->B Sent = 0, want > 0: %+v", st)
			}
			if st.State != StateUp {
				t.Fatalf("A->B state = %v, want up", st.State)
			}
			if _, ok := a.Status("nobody"); ok {
				t.Fatal("Status(nobody) should be unknown")
			}

			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			// Close is idempotent.
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			check()
		})
	}
}

// sendLedger is everything a Send can leave behind: the peer's Status
// counters and the endpoint's registry counters and queue gauge. The
// per-state peers gauges are not in it: a TCP link goroutine moves its
// peer Down → Dialing in the background, one gauge at a time, so their
// sum is only meaningful once the endpoint has settled (see peersOf).
type sendLedger struct {
	st                       Status
	sent, dropped, overflows int64
	queueDepth               int64
}

func ledgerOf(tr Transport, reg *obs.Registry, to PeerID) sendLedger {
	l := sendLedger{
		sent:       reg.Counter("transport_sent").Value(),
		dropped:    reg.Counter("transport_dropped").Value(),
		overflows:  reg.Counter("transport_overflow").Value(),
		queueDepth: gaugeVal(reg, "transport_queue_depth"),
	}
	l.st, _ = tr.Status(to)
	l.st.State, l.st.Dials, l.st.Redials, l.st.LastErr = 0, 0, 0, "" // the TCP link dials in the background
	return l
}

// peersOf sums the per-state peers gauges; call it on a closed endpoint.
func peersOf(reg *obs.Registry) (n int64) {
	for s := StateDown; s <= StateClosed; s++ {
		n += gaugeVal(reg, "transport_peers_"+s.String())
	}
	return n
}

// wedged builds endpoint A of the given kind with a send path to "B"
// that accepts at most a queue's worth of frames and then overflows,
// and a registry that only A reports into.
func wedged(t *testing.T, kind string) (a Transport, reg *obs.Registry, cleanup func()) {
	t.Helper()
	reg = obs.New()
	switch kind {
	case "loopback":
		// B's pump is parked in its handler, so its one-slot inbox fills.
		sw := NewSwitch()
		la, err := NewLoopback(sw, Config{ID: "A", Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		lb, err := NewLoopback(sw, Config{ID: "B", Queue: 1})
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		lb.SetHandler(func(PeerID, []byte) { <-release })
		la.AddPeer("B", "B")
		return la, reg, func() { close(release); lb.Close() }
	case "udp":
		// Nothing can park the writer; a one-slot queue and a tight
		// send loop outrun its one syscall per frame.
		ua, err := NewUDP("127.0.0.1:0", Config{ID: "A", Queue: 1, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		ub, err := NewUDP("127.0.0.1:0", Config{ID: "B"})
		if err != nil {
			t.Fatal(err)
		}
		ua.AddPeer("B", ub.Addr())
		return ua, reg, func() { ub.Close() }
	case "tcp":
		// The link never comes up, so its queue only fills.
		clk := &fakeClock{fire: false}
		dial := func(string, time.Duration) (netConn, error) { return nil, errors.New("always down") }
		ta, err := NewTCP("127.0.0.1:0", Config{ID: "A", Queue: 1, Obs: reg, Clock: clk, Dial: dial,
			Backoff: Backoff{Base: time.Millisecond, Max: time.Second}})
		if err != nil {
			t.Fatal(err)
		}
		ta.AddPeer("B", "down:1")
		waitFor(t, func() bool { return len(clk.recorded()) >= 1 })
		return ta, reg, func() {}
	}
	t.Fatalf("unknown kind %q", kind)
	return nil, nil, nil
}

// TestConformanceSendErrors pins the error contract and its accounting,
// identically on all three wires (it is the endpoint core's): a send to
// an unknown or removed peer, an oversize frame and a send after Close
// are refused with their error and leave no trace in any counter or
// gauge; an overflowing send returns ErrQueueFull, bumps exactly the
// overflow counters, and every frame that was accepted ends up sent or
// dropped — never silently gone.
func TestConformanceSendErrors(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			check := guardGoroutines(t)
			a, reg, cleanup := wedged(t, kind)
			a.AddPeer("C", "127.0.0.1:1")

			before := ledgerOf(a, reg, "C")
			if err := a.Send("stranger", []byte("x")); err != ErrUnknownPeer {
				t.Fatalf("unknown peer: got %v, want ErrUnknownPeer", err)
			}
			if err := a.Send("C", make([]byte, MaxFrame+1)); err != ErrFrameTooBig {
				t.Fatalf("oversize: got %v, want ErrFrameTooBig", err)
			}
			if got := ledgerOf(a, reg, "C"); got != before {
				t.Fatalf("refused sends left a trace:\n before %+v\n after  %+v", before, got)
			}
			a.RemovePeer("C")
			if err := a.Send("C", []byte("x")); err != ErrUnknownPeer {
				t.Fatalf("removed peer: got %v, want ErrUnknownPeer", err)
			}

			// Overflow: send until the wedged path has refused three frames.
			var accepted, refused uint64
			for tries := 0; refused < 3; tries++ {
				switch err := a.Send("B", []byte("frame")); err {
				case nil:
					accepted++
				case ErrQueueFull:
					refused++
				default:
					t.Fatalf("send %d: %v", tries, err)
				}
				if tries > 1<<20 {
					t.Fatalf("the wedged path never overflowed (%d accepted)", accepted)
				}
			}
			over := ledgerOf(a, reg, "B")
			if over.st.Overflows != refused || over.overflows != int64(refused) {
				t.Fatalf("%d sends refused, Status.Overflows = %d, transport_overflow = %d",
					refused, over.st.Overflows, over.overflows)
			}

			a.Close()
			cleanup()
			if err := a.Send("B", []byte("x")); err != ErrClosed {
				t.Fatalf("after close: got %v, want ErrClosed", err)
			}
			end := ledgerOf(a, reg, "B")
			if end.queueDepth != 0 || peersOf(reg) != 0 {
				t.Fatalf("gauges not drained by Close: %+v, peers %d", end, peersOf(reg))
			}
			if end.overflows != int64(refused) {
				t.Fatalf("a closed endpoint counted an overflow: %+v", end)
			}
			// Loopback frames sit in the receiver's inbox (its ledger);
			// on UDP and TCP every accepted frame is the sender's to
			// account for.
			if kind != "loopback" && uint64(end.sent+end.dropped) != accepted {
				t.Fatalf("%d frames accepted, %d sent + %d dropped", accepted, end.sent, end.dropped)
			}
			check()
		})
	}
}

// TestLoopbackOverflowAccounting proves the bounded-queue contract: a
// receiver wedged in its handler fills its inbox, further sends fail
// fast with ErrQueueFull, and the overflow lands in Status counters —
// never an unbounded buffer, never a silent drop.
func TestLoopbackOverflowAccounting(t *testing.T) {
	check := guardGoroutines(t)
	sw := NewSwitch()
	a, err := NewLoopback(sw, Config{ID: "A"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLoopback(sw, Config{ID: "B", Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("B", "B")
	b.AddPeer("A", "A")

	started := make(chan struct{})
	release := make(chan struct{})
	b.SetHandler(func(PeerID, []byte) {
		started <- struct{}{}
		<-release
	})

	// Frame 1 occupies the pump (blocked in the handler).
	if err := a.Send("B", []byte("f1")); err != nil {
		t.Fatal(err)
	}
	<-started
	// Frame 2 fills B's inbox (capacity 1).
	if err := a.Send("B", []byte("f2")); err != nil {
		t.Fatal(err)
	}
	// Frame 3 must overflow, not block, not vanish.
	if err := a.Send("B", []byte("f3")); err != ErrQueueFull {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	st, _ := a.Status("B")
	if st.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", st.Overflows)
	}
	if st.Sent != 2 {
		t.Fatalf("Sent = %d, want 2", st.Sent)
	}
	close(release)
	// Let the pump drain frame 2's handler call too.
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("frame 2 never reached the handler")
	}
	a.Close()
	b.Close()
	check()
}

// TestLoopbackKilledPeerDropsCounted: sending to a peer that detached
// from the switch drops with accounting (datagram-to-dead-host
// semantics), and the link state reports down.
func TestLoopbackKilledPeerDropsCounted(t *testing.T) {
	check := guardGoroutines(t)
	sw := NewSwitch()
	a, _ := NewLoopback(sw, Config{ID: "A"})
	b, _ := NewLoopback(sw, Config{ID: "B"})
	a.AddPeer("B", "B")
	b.Close() // peer dies
	if err := a.Send("B", []byte("x")); err != nil {
		t.Fatalf("send to dead peer: %v (want nil + drop accounting)", err)
	}
	st, _ := a.Status("B")
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	if st.State != StateDown {
		t.Fatalf("state = %v, want down", st.State)
	}
	a.Close()
	check()
}

// TestUDPOversizeDatagram: frames near MaxFrame exceed the datagram
// cap and must be refused with accounting, not truncated.
func TestUDPOversizeDatagram(t *testing.T) {
	check := guardGoroutines(t)
	a, b := newPair(t, "udp")
	if err := a.Send("B", make([]byte, maxDatagram)); err != ErrFrameTooBig {
		t.Fatalf("got %v, want ErrFrameTooBig", err)
	}
	st, _ := a.Status("B")
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	a.Close()
	b.Close()
	check()
}

// TestEnvelopeHostileLengths: the envelope decoder must reject
// truncated and lying sender-ID lengths before touching the payload.
func TestEnvelopeHostileLengths(t *testing.T) {
	cases := [][]byte{
		{},            // empty
		{0},           // zero-length sender ID
		{5, 'a', 'b'}, // declares 5 bytes of ID, has 2
		{255},         // declares 255, has 0
	}
	for i, buf := range cases {
		if _, _, err := decodeEnvelope(buf); err == nil {
			t.Fatalf("case %d (%v): decode accepted hostile envelope", i, buf)
		}
	}
	// Round-trip sanity.
	env := encodeEnvelope("peer-1", []byte("payload"))
	from, payload, err := decodeEnvelope(env)
	if err != nil || from != "peer-1" || !bytes.Equal(payload, []byte("payload")) {
		t.Fatalf("roundtrip: %q %q %v", from, payload, err)
	}
}

// TestStreamFrameLenCap: a 4-byte header claiming 2 GiB must be
// rejected before any allocation.
func TestStreamFrameLenCap(t *testing.T) {
	hdr := []byte{0x80, 0x00, 0x00, 0x00} // 2 GiB
	if _, err := streamFrameLen(hdr); err == nil {
		t.Fatal("2 GiB stream frame accepted")
	}
	if _, err := streamFrameLen([]byte{0, 0, 0, 0}); err == nil {
		t.Fatal("zero-length stream frame accepted")
	}
	ok := make([]byte, 4)
	putStreamHeader(ok, 1024)
	if n, err := streamFrameLen(ok); err != nil || n != 1024 {
		t.Fatalf("valid header: n=%d err=%v", n, err)
	}
}

// TestManyEndpointsCloseClean spins a small mesh per kind and closes
// everything, guarding goroutines — the shape the daemon uses.
func TestManyEndpointsCloseClean(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			check := guardGoroutines(t)
			const n = 8
			sw := NewSwitch()
			var eps []Transport
			for i := 0; i < n; i++ {
				id := PeerID(fmt.Sprintf("n%d", i))
				var tr Transport
				var err error
				switch kind {
				case "loopback":
					tr, err = NewLoopback(sw, Config{ID: id})
				case "udp":
					tr, err = NewUDP("127.0.0.1:0", Config{ID: id})
				case "tcp":
					tr, err = NewTCP("127.0.0.1:0", Config{ID: id})
				}
				if err != nil {
					t.Fatal(err)
				}
				eps = append(eps, tr)
			}
			var got collector
			for _, e := range eps {
				e.SetHandler(got.handler())
			}
			for i, e := range eps {
				for j, o := range eps {
					if i != j {
						if err := e.AddPeer(o.ID(), o.Addr()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			// Hub-and-spoke burst through endpoint 0.
			for _, o := range eps[1:] {
				waitDelivered(t, eps[0], o.ID(), "n0", []byte("hello "+string(o.ID())), &got)
			}
			for _, e := range eps {
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
			}
			check()
		})
	}
}
