package transport

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestIdleEndpointFootprint is the memory ratchet of an idle endpoint
// at the bench's Queue of 4096: GC-settled HeapInuse+StackInuse per
// endpoint, read the way the bench's mem_bytes_per_member is, for a few
// dozen endpoints of each wire (a TCP endpoint with one live peer link,
// so its link goroutine and the peer's read pump count too). A queue's
// storage grows with use, so an idle one holds no slots. Each budget is
// the highest reading over repeated runs, with and without -race, when
// it was set, ×1.25, as in chaos's footprint budget. Goroutine stacks
// make the loopback and TCP readings move by a few KB between runs.
// A queue preallocated to its bound (UDP: 32 B × 4096) fails all three.
func TestIdleEndpointFootprint(t *testing.T) {
	const n, queue = 64, 4096
	for _, tc := range []struct {
		kind   string
		budget float64
	}{
		{"loopback", 7400},
		{"udp", 90300},
		{"tcp", 35700},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			check := guardGoroutines(t)
			before := liveBytes()
			sw := NewSwitch()
			eps := make([]Transport, n)
			for i := range eps {
				cfg := Config{ID: PeerID(fmt.Sprintf("n%d", i)), Queue: queue}
				var err error
				switch tc.kind {
				case "loopback":
					eps[i], err = NewLoopback(sw, cfg)
				case "udp":
					eps[i], err = NewUDP("127.0.0.1:0", cfg)
				case "tcp":
					eps[i], err = NewTCP("127.0.0.1:0", cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if tc.kind == "tcp" {
				for i, e := range eps {
					next := eps[(i+1)%n]
					if err := e.AddPeer(next.ID(), next.Addr()); err != nil {
						t.Fatal(err)
					}
				}
				waitFor(t, func() bool {
					for i, e := range eps {
						if st, _ := e.Status(eps[(i+1)%n].ID()); st.State != StateUp {
							return false
						}
					}
					return true
				})
			}
			per := (float64(liveBytes()) - float64(before)) / n
			runtime.KeepAlive(sw)
			for _, e := range eps {
				e.Close()
			}
			check()
			t.Logf("idle %s endpoint: %.0f bytes resident", tc.kind, per)
			if per > tc.budget {
				t.Errorf("idle %s endpoint: %.0f bytes resident exceeds the %.0f budget", tc.kind, per, tc.budget)
			}
		})
	}
}

// TestWarmSendAllocatesNothing: once a UDP or TCP endpoint's queue
// and write scratch have grown, a frame allocates nothing on its way
// out, Send through the write: the queue keeps the caller's frame, the
// UDP pump envelopes it in its own scratch, and a TCP link writes the
// headers and the frame in one gathered write. Each run waits for the
// write, so the pump's share is counted. The far end is a bare socket
// read into one buffer, so no receive path is counted. (Loopback keeps
// its one copy per frame: the receiving handler owns it.)
func TestWarmSendAllocatesNothing(t *testing.T) {
	frame := make([]byte, 512)
	for _, kind := range []string{"udp", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			check := guardGoroutines(t)
			var sock io.ReadCloser
			var tr Transport
			var err error
			switch kind {
			case "udp":
				var c *net.UDPConn
				if c, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
					t.Fatal(err)
				}
				sock = c
				if tr, err = NewUDP("127.0.0.1:0", Config{ID: "A"}); err == nil {
					err = tr.AddPeer("B", c.LocalAddr().String())
				}
			case "tcp":
				var ln net.Listener
				if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				if tr, err = NewTCP("127.0.0.1:0", Config{ID: "A"}); err == nil {
					err = tr.AddPeer("B", ln.Addr().String())
				}
				if err == nil {
					sock, err = ln.Accept()
				}
				ln.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				buf := make([]byte, 64*1024)
				for {
					if _, err := sock.Read(buf); err != nil {
						return
					}
				}
			}()
			sent := uint64(0)
			send := func() {
				if err := tr.Send("B", frame); err != nil {
					t.Fatal(err)
				}
				sent++
				for st, _ := tr.Status("B"); st.Sent < sent; st, _ = tr.Status("B") {
					if st.Dropped > 0 {
						t.Fatalf("frame dropped: %s", st.LastErr)
					}
					runtime.Gosched()
				}
			}
			for i := 0; i < 16; i++ {
				send()
			}
			if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
				t.Errorf("a warm %s Send allocates %.2f times per frame, want 0", kind, allocs)
			}
			tr.Close()
			sock.Close()
			<-drained
			check()
		})
	}
}

// TestWarmDispatchAllocatesOnlyTheFrame: once warm, a frame costs its
// wire's own frame buffer and nothing more on the way in (loopback's
// envelope copy at the sender, the UDP read pump's clone, the TCP read
// pump's frame). The receiver attributes it without building a PeerID:
// it reuses its registered peer's, or, for a sender it never
// registered, the one its read pump built for that sender's last frame.
func TestWarmDispatchAllocatesOnlyTheFrame(t *testing.T) {
	frame := make([]byte, 256)
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			check := guardGoroutines(t)
			sw := NewSwitch()
			endpoint := func(id PeerID) Transport {
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
				return tr
			}
			rx, known, stranger := endpoint("receiver"), endpoint("known"), endpoint("stranger")
			// The handler reports each frame by its attributed sender;
			// waiting on a channel lets the read pump's netpoll wake it.
			fromKnown, fromStranger := make(chan struct{}, 1), make(chan struct{}, 1)
			rx.SetHandler(func(from PeerID, _ []byte) {
				switch from {
				case "known":
					fromKnown <- struct{}{}
				case "stranger":
					fromStranger <- struct{}{}
				}
			})
			for _, err := range []error{
				rx.AddPeer("known", known.Addr()), known.AddPeer("receiver", rx.Addr()), stranger.AddPeer("receiver", rx.Addr()),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			stalled := make(chan struct{})
			defer time.AfterFunc(30*time.Second, func() { close(stalled) }).Stop()
			for _, c := range []struct {
				name    string
				from    Transport
				arrived chan struct{}
			}{{"registered", known, fromKnown}, {"unregistered repeat", stranger, fromStranger}} {
				send := func() {
					if err := c.from.Send("receiver", frame); err != nil {
						t.Fatal(err)
					}
					select {
					case <-c.arrived:
					case <-stalled:
						t.Fatalf("%s: a frame never reached the handler", c.name)
					}
				}
				for i := 0; i < 16; i++ {
					send()
				}
				if allocs := testing.AllocsPerRun(100, send); allocs > 1 {
					t.Errorf("%s sender: a warm frame allocates %.2f times end to end, want at most 1 (its buffer)", c.name, allocs)
				}
			}
			for _, tr := range []Transport{rx, known, stranger} {
				tr.Close()
			}
			check()
		})
	}
}

// TestUDPAddPeerLocators: a literal ip:port is registered as given, and
// registering it again is a no-op that builds nothing; a host name goes
// through the resolver and is registered at the address it resolved to.
func TestUDPAddPeerLocators(t *testing.T) {
	check := guardGoroutines(t)
	a, err := NewUDP("127.0.0.1:0", Config{ID: "A"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewUDP("127.0.0.1:0", Config{ID: "B"})
	if err != nil {
		t.Fatal(err)
	}
	b.SetHandler(func(PeerID, []byte) {})
	literal := b.Addr()
	if err := a.AddPeer("B", literal); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("B", []byte{1}); err != nil {
		t.Fatal(err)
	}
	for st, _ := a.Status("B"); st.Sent == 0; st, _ = a.Status("B") {
		runtime.Gosched()
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := a.AddPeer("B", literal); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("re-registering at the same literal locator allocates %.0f times, want 0", allocs)
	}
	if st, _ := a.Status("B"); st.Addr != literal || st.Sent != 1 {
		t.Errorf("after re-registering: locator %q, sent %d; want %q and the first registration's 1", st.Addr, st.Sent, literal)
	}
	_, port, err := net.SplitHostPort(literal)
	if err != nil {
		t.Fatal(err)
	}
	named := net.JoinHostPort("localhost", port)
	resolved, err := net.ResolveUDPAddr("udp", named)
	if err != nil {
		t.Skipf("localhost does not resolve here: %v", err)
	}
	if err := a.AddPeer("C", named); err != nil {
		t.Fatal(err)
	}
	if st, _ := a.Status("C"); st.Addr != resolved.String() {
		t.Errorf("a host name registered at %q, want the resolved %q", st.Addr, resolved.String())
	}
	a.Close()
	b.Close()
	check()
}

// liveBytes is HeapInuse+StackInuse after a full collection.
func liveBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse + m.StackInuse
}
