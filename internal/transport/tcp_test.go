package transport

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock records every After() wait. With fire=true each returned
// channel is pre-fired so the state machine advances instantly; with
// fire=false the channels never fire, parking the waiter until Close.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	waits []time.Duration
	fire  bool
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.waits = append(c.waits, d)
	c.now = c.now.Add(d)
	fire := c.fire
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if fire {
		ch <- time.Time{}
	}
	return ch
}

func (c *fakeClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.waits...)
}

// TestTCPRedialBackoffPinned injects a dialer that fails three times
// before handing over one end of an in-memory pipe, and pins the exact
// redial schedule min(Base<<(n-1), Max) observed through the fake
// clock: [Base, 2·Base, 4·Base] with jitter disabled. After the
// reconnection the queued frame flushes over the new connection.
func TestTCPRedialBackoffPinned(t *testing.T) {
	check := guardGoroutines(t)
	clk := &fakeClock{fire: true}
	var dials atomic.Int32
	client, server := net.Pipe()
	dial := func(addr string, timeout time.Duration) (netConn, error) {
		if dials.Add(1) <= 3 {
			return nil, errors.New("injected dial failure")
		}
		return client, nil
	}
	tr, err := NewTCP("127.0.0.1:0", Config{
		ID:    "A",
		Clock: clk,
		Dial:  dial,
		Backoff: Backoff{
			Base:   50 * time.Millisecond,
			Max:    2 * time.Second,
			Jitter: 0, // deterministic schedule
		},
		// Generous write timeout: net.Pipe writes block until read.
		WriteTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AddPeer("B", "anywhere:1"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send("B", []byte("after-redial")); err != nil {
		t.Fatal(err)
	}

	// Read the flushed frame off the far end of the pipe.
	done := make(chan []byte, 1)
	go func() {
		hdr := make([]byte, 4)
		if _, err := io.ReadFull(server, hdr); err != nil {
			done <- nil
			return
		}
		n, err := streamFrameLen(hdr)
		if err != nil {
			done <- nil
			return
		}
		env := make([]byte, n)
		if _, err := io.ReadFull(server, env); err != nil {
			done <- nil
			return
		}
		done <- env
	}()
	var env []byte
	select {
	case env = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("frame never flushed after redial")
	}
	from, payload, err := decodeEnvelope(env)
	if err != nil || string(from) != "A" || string(payload) != "after-redial" {
		t.Fatalf("flushed frame: from=%q payload=%q err=%v", from, payload, err)
	}

	if got := dials.Load(); got != 4 {
		t.Fatalf("dial attempts = %d, want 4 (3 failures + 1 success)", got)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	got := clk.recorded()
	if len(got) != len(want) {
		t.Fatalf("backoff waits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backoff wait %d = %v, want %v (schedule %v)", i, got[i], want[i], got)
		}
	}
	st, _ := tr.Status("B")
	if st.State != StateUp {
		t.Fatalf("state = %v, want up", st.State)
	}
	if st.Dials != 4 || st.Redials != 2 {
		t.Fatalf("Dials=%d Redials=%d, want 4/2 (failures 2 and 3 are redials)", st.Dials, st.Redials)
	}
	if !strings.Contains(st.LastErr, "injected dial failure") {
		t.Fatalf("LastErr = %q, want the injected dial error", st.LastErr)
	}

	server.Close()
	tr.Close()
	check()
}

// TestTCPBackoffCap: the schedule saturates at Max.
func TestBackoffDelaySchedule(t *testing.T) {
	b := Backoff{Base: 50 * time.Millisecond, Max: 400 * time.Millisecond}
	want := []time.Duration{
		50 * time.Millisecond,  // attempt 1
		100 * time.Millisecond, // 2
		200 * time.Millisecond, // 3
		400 * time.Millisecond, // 4
		400 * time.Millisecond, // 5 (capped)
	}
	for i, w := range want {
		if got := b.Delay(i + 1); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Shift overflow must saturate at Max, not wrap negative.
	if got := b.Delay(200); got != b.Max {
		t.Fatalf("Delay(200) = %v, want Max %v", got, b.Max)
	}
	if got := b.Delay(0); got != b.Base {
		t.Fatalf("Delay(0) = %v, want Base (clamped to attempt 1)", got)
	}
	// Jitter stays within ±Jitter fraction.
	j := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Jitter: 0.5,
		Rand: func() float64 { return 1.0 }} // max positive jitter
	if got := j.Delay(1); got != 150*time.Millisecond {
		t.Fatalf("jittered Delay(1) = %v, want 150ms at Rand()=1", got)
	}
	j.Rand = func() float64 { return 0 } // max negative jitter
	if got := j.Delay(1); got != 50*time.Millisecond {
		t.Fatalf("jittered Delay(1) = %v, want 50ms at Rand()=0", got)
	}
}

// TestTCPQueueOverflowWhileDown: with the link parked in backoff (the
// fake clock never fires), the bounded queue fills and Send fails fast
// with ErrQueueFull + accounting instead of buffering without bound.
func TestTCPQueueOverflowWhileDown(t *testing.T) {
	check := guardGoroutines(t)
	clk := &fakeClock{fire: false} // backoff wait never completes
	dial := func(addr string, timeout time.Duration) (netConn, error) {
		return nil, errors.New("always down")
	}
	tr, err := NewTCP("127.0.0.1:0", Config{ID: "A", Clock: clk, Dial: dial, Queue: 2,
		Backoff: Backoff{Base: time.Millisecond, Max: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	tr.AddPeer("B", "down:1")
	// Wait until the link is parked in its first backoff.
	waitFor(t, func() bool { return len(clk.recorded()) >= 1 })

	if err := tr.Send("B", []byte("q1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send("B", []byte("q2")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send("B", []byte("q3")); err != ErrQueueFull {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	st, _ := tr.Status("B")
	if st.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", st.Overflows)
	}
	if st.State != StateRedialing {
		t.Fatalf("state = %v, want redialing", st.State)
	}
	tr.Close()
	// The two queued frames died with the link — accounted, not silent.
	check()
}

// TestTCPStalledPeerCannotWedge is the deadline proof: a peer that
// accepts the connection and then never reads cannot block this
// endpoint. Sends stay non-blocking, the write deadline fires, the
// dropped frames are counted, and the link goes into redial — so a
// rekey interval proceeds for everyone else.
func TestTCPStalledPeerCannotWedge(t *testing.T) {
	check := guardGoroutines(t)
	// The stalled peer: accepts and holds every conn without reading.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var heldMu sync.Mutex
	var held []net.Conn
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()

	tr, err := NewTCP("127.0.0.1:0", Config{
		ID:           "A",
		WriteTimeout: 200 * time.Millisecond,
		Queue:        4,
		Backoff:      Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.AddPeer("stalled", ln.Addr().String())

	// Pump large frames; OS buffers fill, then the write deadline must
	// fire. Every Send must return promptly (the queue bounds it).
	frame := make([]byte, 128*1024)
	deadline := time.Now().Add(10 * time.Second)
	for {
		start := time.Now()
		err := tr.Send("stalled", frame)
		if took := time.Since(start); took > time.Second {
			t.Fatalf("Send blocked %v — a stalled peer wedged the sender", took)
		}
		if err != nil && err != ErrQueueFull {
			t.Fatalf("Send: %v", err)
		}
		st, _ := tr.Status("stalled")
		if st.Dropped > 0 && st.Redials > 0 {
			if !strings.Contains(st.LastErr, "timeout") && !strings.Contains(st.LastErr, "deadline") {
				t.Fatalf("LastErr = %q, want a deadline error", st.LastErr)
			}
			break // deadline fired, drop counted, redial under way
		}
		if time.Now().After(deadline) {
			t.Fatalf("write deadline never fired against stalled peer: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	tr.Close()
	ln.Close()
	<-acceptDone
	heldMu.Lock()
	for _, c := range held {
		c.Close()
	}
	heldMu.Unlock()
	check()
}

// TestTCPFaultDialRefusal: the fault plan refuses the first dials;
// the link must redial through them and come up, with the refusals
// visible in Dials/Redials and LastErr.
func TestTCPFaultDialRefusal(t *testing.T) {
	check := guardGoroutines(t)
	plan := NewFaultPlan(1)
	plan.RefuseDials("B", 3)

	b, err := NewTCP("127.0.0.1:0", Config{ID: "B"})
	if err != nil {
		t.Fatal(err)
	}
	var cb collector
	b.SetHandler(cb.handler())

	a, err := NewTCP("127.0.0.1:0", Config{
		ID:      "A",
		Faults:  plan,
		Backoff: Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("B", b.Addr())
	b.AddPeer("A", a.Addr())

	waitDelivered(t, a, "B", "A", []byte("through the refusals"), &cb)
	st, _ := a.Status("B")
	if st.Dials < 4 {
		t.Fatalf("Dials = %d, want >= 4 (3 refusals + success)", st.Dials)
	}
	if st.Redials < 2 {
		t.Fatalf("Redials = %d, want >= 2", st.Redials)
	}
	if !strings.Contains(st.LastErr, "refused") {
		t.Fatalf("LastErr = %q, want dial-refused", st.LastErr)
	}
	a.Close()
	b.Close()
	check()
}

// TestTCPFaultConnReset: an injected reset drops the in-flight frame
// (counted) and the link reestablishes; later frames get through.
func TestTCPFaultConnReset(t *testing.T) {
	check := guardGoroutines(t)
	plan := NewFaultPlan(1)

	b, err := NewTCP("127.0.0.1:0", Config{ID: "B"})
	if err != nil {
		t.Fatal(err)
	}
	var cb collector
	b.SetHandler(cb.handler())

	a, err := NewTCP("127.0.0.1:0", Config{
		ID:      "A",
		Faults:  plan,
		Backoff: Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("B", b.Addr())
	b.AddPeer("A", a.Addr())

	waitDelivered(t, a, "B", "A", []byte("before reset"), &cb)
	plan.ResetConns("B", 1)
	if err := a.Send("B", []byte("eaten by reset")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st, _ := a.Status("B")
		return st.Dropped >= 1
	})
	waitDelivered(t, a, "B", "A", []byte("after reset"), &cb)
	if cb.has("A", []byte("eaten by reset")) {
		t.Fatal("reset frame was delivered — reset did not drop it")
	}
	st, _ := a.Status("B")
	if st.Redials < 1 {
		t.Fatalf("Redials = %d, want >= 1 after reset", st.Redials)
	}
	a.Close()
	b.Close()
	check()
}

// TestTCPQueuedFramesFlushAfterRedial: frames parked while the dialer
// fails flush in Send order once a dial succeeds, with no further Send
// to wake the link. With an injected reset, the first frame of the run
// is the only one lost: the link redials and flushes the rest. That
// case leaves q2 and q3 queued after the link has taken the wake for
// the run, so a link that parked before it popped would never send
// them.
func TestTCPQueuedFramesFlushAfterRedial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		resets int
		want   []string
	}{
		{"clean redial", 0, []string{"q1", "q2", "q3"}},
		{"reset eats the first", 1, []string{"q2", "q3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := guardGoroutines(t)
			b, err := NewTCP("127.0.0.1:0", Config{ID: "B"})
			if err != nil {
				t.Fatal(err)
			}
			var cb collector
			b.SetHandler(cb.handler())
			plan := NewFaultPlan(1)
			plan.ResetConns("B", tc.resets)
			var down atomic.Bool
			down.Store(true)
			var dials atomic.Int32
			dial := func(addr string, timeout time.Duration) (netConn, error) {
				dials.Add(1)
				if down.Load() {
					return nil, errors.New("down")
				}
				return defaultDial(addr, timeout)
			}
			a, err := NewTCP("127.0.0.1:0", Config{ID: "A", Dial: dial, Faults: plan,
				Backoff: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			a.AddPeer("B", b.Addr())
			waitFor(t, func() bool { return dials.Load() >= 2 })
			for _, f := range []string{"q1", "q2", "q3"} {
				if err := a.Send("B", []byte(f)); err != nil {
					t.Fatal(err)
				}
			}
			if st, _ := a.Status("B"); st.State != StateRedialing || st.Sent != 0 {
				t.Fatalf("before the link is up: %+v", st)
			}
			down.Store(false)
			waitFor(t, func() bool {
				cb.mu.Lock()
				defer cb.mu.Unlock()
				return len(cb.frames) >= len(tc.want)
			})
			time.Sleep(20 * time.Millisecond) // nothing else may arrive
			cb.mu.Lock()
			var got []string
			for _, r := range cb.frames {
				got = append(got, string(r.frame))
			}
			cb.mu.Unlock()
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Fatalf("frames arrived as %q, want %q", got, tc.want)
			}
			st, _ := a.Status("B")
			if st.Sent != uint64(len(tc.want)) || st.Dropped != uint64(tc.resets) {
				t.Fatalf("Sent = %d, Dropped = %d; want %d and %d", st.Sent, st.Dropped, len(tc.want), tc.resets)
			}
			a.Close()
			b.Close()
			check()
		})
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
