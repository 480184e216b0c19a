package rekeyd

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/split"
	"tmesh/internal/transport"
	"tmesh/internal/wire"
	"tmesh/internal/work"
)

func testConfig(kind string, members int) WorldConfig {
	return WorldConfig{
		Params:         ident.Params{Digits: 3, Base: 4},
		K:              2,
		Seed:           7,
		InitialMembers: members,
		Transport:      kind,
		Ladder: Config{
			Timeout:      150 * time.Millisecond,
			RetryBase:    50 * time.Millisecond,
			RetryMax:     200 * time.Millisecond,
			RetryBudget:  3,
			ResyncBudget: 5,
		},
	}
}

// guardGoroutines mirrors the transport test helper: every node,
// pump, and ladder goroutine must be gone after World.Close.
func guardGoroutines(t *testing.T) func() {
	t.Helper()
	// The work.Run helpers are process-wide and outlive every World by
	// design: start them before the snapshot so they do not read as a
	// leak.
	work.Run(0, work.Width(), func(_ int, next func() (int, bool)) {
		for {
			if _, ok := next(); !ok {
				return
			}
		}
	})
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// assertConverged checks the interval's contract: every surviving
// member acked, holds the server's group key byte-for-byte, and is at
// the tree's interval.
func assertConverged(t *testing.T, w *World, res *Result) {
	t.Helper()
	if len(res.DeadInFlight) != 0 {
		t.Fatalf("interval %d: dead in flight %v", res.Interval, res.DeadInFlight)
	}
	if !res.Acked() {
		t.Fatalf("interval %d: %d/%d acked", res.Interval, len(res.RungOf), res.Expected)
	}
	want, ok := w.Tree().GroupKey()
	if !ok {
		t.Fatal("tree has no group key")
	}
	for _, m := range w.Members() {
		got, ok := m.GroupKey()
		if !ok || !got.Equal(want) {
			t.Fatalf("interval %d: member %v group key mismatch (has key: %v)", res.Interval, m.ID(), ok)
		}
		if m.Applied() != w.Tree().Interval() {
			t.Fatalf("interval %d: member %v applied %d, tree at %d", res.Interval, m.ID(), m.Applied(), w.Tree().Interval())
		}
	}
}

// TestWorldConverges runs several churning intervals on each transport
// kind and requires full convergence with real keyrings: the group key
// every member derives by unwrapping its slices must equal the
// server's, byte for byte.
func TestWorldConverges(t *testing.T) {
	for _, kind := range []string{"loopback", "udp", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			check := guardGoroutines(t)
			w, err := NewWorld(testConfig(kind, 16))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := w.Join(); err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					if err := w.Leave(w.Members()[0].ID()); err != nil {
						t.Fatal(err)
					}
				}
				res, err := w.Rekey()
				if err != nil {
					t.Fatal(err)
				}
				assertConverged(t, w, res)
			}
			w.Close()
			check()
		})
	}
}

// TestKillRestoreMidInterval is the acceptance scenario from the
// issue: peers are killed before the rekey multicast and restored
// mid-interval, and every surviving member must still end the interval
// with the group key — the ladder's unicast/resync rungs carry the
// restored peers home.
func TestKillRestoreMidInterval(t *testing.T) {
	for _, kind := range []string{"loopback", "udp"} {
		t.Run(kind, func(t *testing.T) {
			check := guardGoroutines(t)
			w, err := NewWorld(testConfig(kind, 16))
			if err != nil {
				t.Fatal(err)
			}
			members := w.Members()
			victims := []ident.ID{members[2].ID(), members[9].ID()}
			for _, v := range victims {
				w.Kill(v)
			}
			// Restore mid-ladder: after the multicast timeout but well
			// inside the resync budget.
			restored := make(chan struct{})
			go func() {
				time.Sleep(300 * time.Millisecond)
				for _, v := range victims {
					w.Restore(v)
				}
				close(restored)
			}()
			if _, err := w.Join(); err != nil {
				t.Fatal(err)
			}
			res, err := w.Rekey()
			if err != nil {
				t.Fatal(err)
			}
			<-restored
			assertConverged(t, w, res)
			// The victims cannot have been reached by plain multicast.
			rungs := res.Rungs()
			if rungs[recovery.ByUnicast]+rungs[recovery.ByResync] < 2 {
				t.Fatalf("killed peers converged without the ladder: %v", rungs)
			}
			w.Close()
			check()
		})
	}
}

// TestCrashEviction: a crashed (permanently killed) peer is evicted at
// the next interval, excluded from the expected set, and the overlay
// stays k-consistent for the survivors.
func TestCrashEviction(t *testing.T) {
	check := guardGoroutines(t)
	w, err := NewWorld(testConfig("loopback", 16))
	if err != nil {
		t.Fatal(err)
	}
	victim := w.Members()[5].ID()
	if err := w.Crash(victim); err != nil {
		t.Fatal(err)
	}
	res, err := w.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	if _, stillThere := w.Member(victim); stillThere {
		t.Fatal("crashed member still present after rekey")
	}
	for k := range res.RungOf {
		if k == victim {
			t.Fatal("crashed member in the expected/acked set")
		}
	}
	assertConverged(t, w, res)
	var consistency error
	w.Shared().Read(func(dir *overlay.Directory) { consistency = dir.CheckConsistency() })
	if consistency != nil {
		t.Fatalf("overlay inconsistent after eviction: %v", consistency)
	}
	w.Close()
	check()
}

// TestStalledPeerBoundsInterval: a member that keeps its transport
// alive but never acks (protocol-level stall — the byte-level write
// deadline twin lives in transport's TestTCPStalledPeerCannotWedge)
// cannot wedge the interval. Distribute terminates within the ladder
// budget, reports the stalled peer dead-in-flight, and every other
// member converges.
func TestStalledPeerBoundsInterval(t *testing.T) {
	check := guardGoroutines(t)
	cfg := testConfig("tcp", 8)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := w.Members()[3]
	// The stall: frames are read off the socket and dropped on the
	// floor. The node stays connected; it just never answers.
	victim.tr.SetHandler(func(transport.PeerID, []byte) {})

	if _, err := w.Join(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := w.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	// Ladder budget: Timeout + Σ min(Base<<(n-1), Max) + Resync·Max,
	// with scheduling slack.
	l := cfg.Ladder
	budget := l.Timeout + (50+100+200)*time.Millisecond + time.Duration(l.ResyncBudget)*l.RetryMax + 5*time.Second
	if elapsed > budget {
		t.Fatalf("Distribute took %v, budget %v — stalled peer wedged the interval", elapsed, budget)
	}
	if len(res.DeadInFlight) != 1 || !res.DeadInFlight[0].Equal(victim.ID()) {
		t.Fatalf("DeadInFlight = %v, want exactly the stalled %v", res.DeadInFlight, victim.ID())
	}
	if res.MaxBackoff != l.RetryMax {
		t.Fatalf("MaxBackoff = %v, want the saturated %v", res.MaxBackoff, l.RetryMax)
	}
	want, _ := w.Tree().GroupKey()
	for _, m := range w.Members() {
		if m.ID().Equal(victim.ID()) {
			continue
		}
		if got, ok := m.GroupKey(); !ok || !got.Equal(want) {
			t.Fatalf("member %v did not converge while %v stalled", m.ID(), victim.ID())
		}
	}
	w.Close()
	check()
}

// TestLadderOutcomeCountsRetries: a member killed for the whole ladder
// is sent every unicast attempt of the budget, all but the first of
// them retries; every unicast wait expires, so the reported backoff is
// the longest of them; and the member ends dead in flight.
func TestLadderOutcomeCountsRetries(t *testing.T) {
	check := guardGoroutines(t)
	cfg := testConfig("loopback", 8)
	// A generous multicast wait keeps the live members off the ladder
	// even on a loaded race-detector run; one resync keeps it short.
	cfg.Ladder.Timeout, cfg.Ladder.ResyncBudget = 500*time.Millisecond, 1
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := w.Members()[2].ID()
	w.Kill(victim)
	if _, err := w.Join(); err != nil { // a cost-0 interval owes nobody
		t.Fatal(err)
	}
	res, err := w.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	p := w.Server().Policy()
	var longest time.Duration
	for n := 1; n <= p.RetryBudget; n++ {
		longest = max(longest, p.Backoff(n))
	}
	if res.UnicastAttempts != p.RetryBudget || res.Retries != p.RetryBudget-1 {
		t.Errorf("UnicastAttempts = %d, Retries = %d; want %d and %d",
			res.UnicastAttempts, res.Retries, p.RetryBudget, p.RetryBudget-1)
	}
	if res.MaxBackoff != longest {
		t.Errorf("MaxBackoff = %v, want the longest expired wait %v", res.MaxBackoff, longest)
	}
	if len(res.DeadInFlight) != 1 || !res.DeadInFlight[0].Equal(victim) {
		t.Errorf("DeadInFlight = %v, want exactly the killed %v", res.DeadInFlight, victim)
	}
	if len(res.RungOf) != res.Expected-1 {
		t.Errorf("%d of %d members settled, want all but the killed one", len(res.RungOf), res.Expected)
	}
	w.Close()
	check()
}

// TestAckLedgerReleased pins the server's per-interval bookkeeping to
// the interval actually in flight: after every Distribute returns no
// ledger is open (it used to keep one N-entry map per interval
// forever), the window of intervals members forward holds the last
// three, and re-distributing a closed interval — the last one, or one
// the window already dropped — is refused without touching the window.
func TestAckLedgerReleased(t *testing.T) {
	w, err := NewWorld(testConfig("loopback", 8))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 50; i++ {
		if _, err := w.Join(); err != nil {
			t.Fatal(err)
		}
		if err := w.Leave(w.Members()[0].ID()); err != nil {
			t.Fatal(err)
		}
		res, err := w.Rekey()
		if err != nil {
			t.Fatal(err)
		}
		assertConverged(t, w, res)
		w.srv.mu.Lock()
		open := w.srv.open
		w.srv.mu.Unlock()
		if open != nil {
			t.Fatalf("interval %d: ledger still open after Distribute returned", res.Interval)
		}
		live := openWindow(w.sh)
		if n := len(live); n == 0 || n > 3 || live[n-1] != res.Interval || live[0]+2 < res.Interval {
			t.Fatalf("interval %d: window %v, want the last three intervals", res.Interval, live)
		}
		for _, k := range []uint64{res.Interval, res.Interval - min(res.Interval, 3)} {
			if _, err := w.srv.Distribute(&keytree.Message{Interval: k}, nil); err == nil {
				t.Fatalf("interval %d redistributed without an error", k)
			}
		}
		if got := openWindow(w.sh); !slices.Equal(got, live) {
			t.Fatalf("interval %d: refused duplicate Distribute moved the window %v to %v", res.Interval, live, got)
		}
	}
}

// openWindow lists the intervals open in sh, ascending.
func openWindow(sh *Shared) []uint64 {
	sh.openMu.RLock()
	defer sh.openMu.RUnlock()
	var out []uint64
	for k := range sh.opened {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestCostZeroIntervalOwesNobody: an interval whose churn never reached
// the tree — none at all, or a join cancelled by its own leave — has no
// encryptions, so Distribute returns at once and books nobody on any
// rung, as the simulator planes skip such an interval. The next interval
// with churn converges every member as usual.
func TestCostZeroIntervalOwesNobody(t *testing.T) {
	cfg := testConfig("loopback", 16)
	cfg.Ladder.Timeout = 400 * time.Millisecond
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, churn := range []string{"none", "join+leave"} {
		if churn == "join+leave" {
			id, err := w.Join()
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Leave(id); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		res, err := w.Rekey()
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed >= cfg.Ladder.Timeout {
			t.Errorf("%s: cost-0 Rekey took %v, a full ladder Timeout", churn, elapsed)
		}
		if res.Expected != 0 || len(res.RungOf) != 0 || res.UnicastAttempts+res.SyncAttempts != 0 {
			t.Errorf("%s: cost-0 interval owed %d members, rungs %v, %d unicasts, %d resyncs",
				churn, res.Expected, res.Rungs(), res.UnicastAttempts, res.SyncAttempts)
		}
	}
	if _, err := w.Join(); err != nil {
		t.Fatal(err)
	}
	res, err := w.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	assertConverged(t, w, res)
	if rungs := res.Rungs(); rungs[recovery.ByMulticast] != len(w.Members()) {
		t.Errorf("interval after two skipped ones: rungs %v, want all %d by multicast", rungs, len(w.Members()))
	}
}

// TestLadderIsOneLoop holds 32 members silent so every one of them is
// mid-ladder at once, and requires the server to be driving all 32
// chains from Distribute's own goroutine: the goroutine count may grow
// by the test's own helper and little else, not by one per straggler.
func TestLadderIsOneLoop(t *testing.T) {
	check := guardGoroutines(t)
	cfg := testConfig("loopback", 40)
	cfg.Ladder.Timeout = 50 * time.Millisecond
	cfg.Ladder.RetryBase, cfg.Ladder.RetryMax = 200*time.Millisecond, 200*time.Millisecond
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	silent := w.Members()[:32]
	for _, m := range silent {
		w.Kill(m.ID())
	}
	// A leave, so the interval changes keys every member is owed.
	if err := w.Leave(w.Members()[39].ID()); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	done := make(chan *Result, 1)
	go func() {
		res, err := w.Rekey()
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	// Well past Timeout, inside the first unicast wait: all 32 chains
	// are on the unicast rung.
	time.Sleep(150 * time.Millisecond)
	if grew := runtime.NumGoroutine() - before; grew > 4 {
		t.Errorf("32 stragglers mid-ladder grew the goroutine count by %d, want a small constant", grew)
	}
	for _, m := range silent {
		w.Restore(m.ID())
	}
	res := <-done
	if res != nil {
		assertConverged(t, w, res)
		if rungs := res.Rungs(); rungs[recovery.ByUnicast]+rungs[recovery.ByResync] < len(silent) {
			t.Errorf("silent members converged without the ladder: %v", rungs)
		}
	}
	w.Close()
	check()
}

// Applied returns the newest interval whose keys are installed.
func (m *Member) Applied() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

// Acked reports whether every expected member acked.
func (r *Result) Acked() bool { return len(r.RungOf) == r.Expected }

// sentFrames records every frame the tapped endpoints send, before the
// fault plan sees it.
type sentFrames struct {
	mu     sync.Mutex
	frames [][]byte
}

func (r *sentFrames) add(frame []byte) {
	r.mu.Lock()
	r.frames = append(r.frames, append([]byte(nil), frame...))
	r.mu.Unlock()
}

func (r *sentFrames) all() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames
}

type tap struct {
	transport.Transport
	rec *sentFrames
}

func (t tap) Send(to transport.PeerID, frame []byte) error {
	t.rec.add(frame)
	return t.Transport.Send(to, frame)
}

// tapSends routes the server's and every current member's sends through
// one recorder. Call it between intervals.
func tapSends(w *World) *sentFrames {
	rec := &sentFrames{}
	w.srv.tr = tap{w.srv.tr, rec}
	w.sh.locMu.Lock()
	defer w.sh.locMu.Unlock()
	for _, m := range w.members {
		m.tr = tap{m.tr, rec}
		// resolve recognises a forwarder by its published endpoint.
		w.sh.locs[m.tr.ID()].tr = m.tr
	}
	return rec
}

// TestNoKeyBytesOnTheWire kills a member for longer than the multicast
// timeout and the unicast rung, so the ladder reaches the resync rung,
// and restores it there. Every frame any node sent is recorded: none may
// contain the bytes of any key a member holds, individual keys
// included. A resync is the member's path wrapped under its individual
// key, not the path itself.
func TestNoKeyBytesOnTheWire(t *testing.T) {
	check := guardGoroutines(t)
	w, err := NewWorld(testConfig("loopback", 16))
	if err != nil {
		t.Fatal(err)
	}
	rec := tapSends(w)
	victim := w.Members()[4].ID()
	w.Kill(victim)
	if err := w.Leave(w.Members()[11].ID()); err != nil {
		t.Fatal(err)
	}
	// Timeout plus three unicasts is 150+50+100+200 ms; the five resyncs
	// follow 200 ms apart.
	restored := make(chan struct{})
	go func() {
		time.Sleep(650 * time.Millisecond)
		w.Restore(victim)
		close(restored)
	}()
	res, err := w.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	<-restored
	assertConverged(t, w, res)
	if res.SyncAttempts == 0 || res.RungOf[victim] != recovery.ByResync {
		t.Fatalf("victim %v keyed by rung %v after %d resyncs, want the resync rung", victim, res.RungOf[victim], res.SyncAttempts)
	}
	frames := rec.all()
	for _, m := range w.Members() {
		path, err := w.Tree().PathKeys(m.ID())
		if err != nil {
			t.Fatal(err)
		}
		for _, pk := range path {
			for _, f := range frames {
				if bytes.Contains(f, pk.Key.Bytes()) {
					t.Fatalf("a frame carries %v's key at %v in the clear", m.ID(), pk.ID)
				}
			}
		}
	}
	w.Close()
	check()
}

// TestResyncRestoresOnlyItsMember: a member kept dark for two intervals
// is restored by one resync frame, installed through the same path as
// any copy, and acks; the same frame handed to another member that
// missed the same intervals installs nothing and draws no ack.
func TestResyncRestoresOnlyItsMember(t *testing.T) {
	cfg := testConfig("loopback", 16)
	cfg.Ladder = Config{Timeout: 100 * time.Millisecond, RetryBase: 20 * time.Millisecond, RetryMax: 20 * time.Millisecond,
		RetryBudget: 1, ResyncBudget: 1}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	a, b := w.Members()[2], w.Members()[9]
	w.Kill(a.ID())
	w.Kill(b.ID())
	for i := 0; i < 2; i++ {
		if _, err := w.Join(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Rekey(); err != nil {
			t.Fatal(err)
		}
	}
	w.Restore(a.ID())
	w.Restore(b.ID())
	tree := w.Tree()
	if tree.Interval()-a.Applied() < 2 || tree.Interval()-b.Applied() < 2 {
		t.Fatalf("dark members at intervals %d and %d, tree at %d", a.Applied(), b.Applied(), tree.Interval())
	}
	// Only a's and b's acks matter, and each sends at most one here.
	acks := make(chan ident.ID, 2)
	w.srv.tr.SetHandler(func(_ transport.PeerID, frame []byte) {
		if _, id, err := wire.UnmarshalAck(frame, cfg.Params); err == nil && (id.Equal(a.ID()) || id.Equal(b.ID())) {
			acks <- id
		}
	})
	msg, err := tree.Resync(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.MarshalRekey(msg, cfg.Params.Digits)
	if err != nil {
		t.Fatal(err)
	}

	stale := b.Applied()
	b.handle(transport.ServerID, frame)
	want, _ := tree.GroupKey()
	if got, _ := b.GroupKey(); b.Applied() != stale || got.Equal(want) {
		t.Fatalf("another member's resync moved %v from interval %d to %d", b.ID(), stale, b.Applied())
	}
	a.handle(transport.ServerID, frame)
	if a.Applied() != tree.Interval() {
		t.Fatalf("resync left %v at interval %d, tree at %d", a.ID(), a.Applied(), tree.Interval())
	}
	path, err := tree.PathKeys(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, pk := range path {
		if got, ok := a.kr.Key(pk.ID); !ok || !got.Equal(pk.Key) {
			t.Fatalf("resynced %v disagrees with the tree at %v", a.ID(), pk.ID)
		}
	}
	// a acks; b does not, even a while after a has.
	deadline := time.After(5 * time.Second)
	var quiet <-chan time.Time
	for {
		select {
		case id := <-acks:
			if id.Equal(b.ID()) {
				t.Fatalf("%v acked a resync that was not its own", b.ID())
			}
			if id.Equal(a.ID()) && quiet == nil {
				quiet = time.After(100 * time.Millisecond)
			}
		case <-quiet:
			return
		case <-deadline:
			t.Fatalf("resynced %v never acked", a.ID())
		}
	}
}

// TestEmptyRekeyFrameMovesNobody: a rekey frame holding nothing a member
// can open installs nothing, whatever interval it names, so a peer
// cannot push a member to interval 2^64-1 and have it ignore every
// later rekey. A replayed real frame with a rewritten interval still
// installs: closing that needs authenticated frames, not this rule.
func TestEmptyRekeyFrameMovesNobody(t *testing.T) {
	cfg := testConfig("loopback", 8)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	victim := w.Members()[3]
	for _, level := range []int{1, cfg.Params.Digits} {
		frame, err := wire.MarshalRekey(&keytree.Message{Interval: math.MaxUint64}, level)
		if err != nil {
			t.Fatal(err)
		}
		victim.handle(PeerOf(w.Members()[0].ID()), frame)
	}
	if got := victim.Applied(); got != w.Tree().Interval() {
		t.Fatalf("an empty frame moved %v to interval %d", victim.ID(), got)
	}
	if _, err := w.Join(); err != nil {
		t.Fatal(err)
	}
	res, err := w.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	assertConverged(t, w, res)
}

// sink records every frame sent through it and delivers none.
type sink struct {
	transport.Transport
	rec *sentFrames
}

func (s sink) Send(_ transport.PeerID, frame []byte) error {
	s.rec.add(frame)
	return nil
}

// TestMemberForwardsOnlyWhatItReceived: a member splits the frame it
// received, not the server's message. With interval k open on the
// full message, a member handed that message minus one encryption a
// downstream subtree needs forwards copies, and the removed encryption
// is in none of them.
func TestMemberForwardsOnlyWhatItReceived(t *testing.T) {
	w, err := NewWorld(testConfig("loopback", 16))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Leave(w.Members()[0].ID()); err != nil {
		t.Fatal(err)
	}
	full, _, _, err := w.tree.Flush(&w.pending, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.sh.openInterval(full.Interval)
	decode := func(rec *sentFrames) []keycrypt.Encryption {
		var out []keycrypt.Encryption
		for _, frame := range rec.all() {
			msg, _, err := wire.UnmarshalRekey(frame)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, msg.Encryptions...)
		}
		return out
	}
	for _, m := range w.Members()[1:] {
		rec := &sentFrames{}
		if w.sh.forward(sink{m.tr, rec}, full, m.ID(), 1, &forwarder{}) == 0 {
			continue
		}
		gone := decode(rec)[0]
		held := &keytree.Message{Interval: full.Interval}
		for _, e := range full.Encryptions {
			if e.ID != gone.ID || e.KeyID != gone.KeyID {
				held.Encryptions = append(held.Encryptions, e)
			}
		}
		rec = &sentFrames{}
		w.sh.forward(sink{m.tr, rec}, held, m.ID(), 1, &forwarder{})
		for _, e := range decode(rec) {
			if e.ID == gone.ID && e.KeyID == gone.KeyID {
				t.Fatalf("member %v forwarded %v under %v, which it never received", m.ID(), e.KeyID, e.ID)
			}
		}
		return
	}
	t.Fatal("no member forwarded a copy of the full message")
}

// TestFrameOfUnknownIntervalIsNotForwarded: a rekey frame for an
// interval the server never opened is not in Shared's opened-interval
// window, and no member forwards it, however many subtrees it claims to
// carry keys for.
func TestFrameOfUnknownIntervalIsNotForwarded(t *testing.T) {
	w, err := NewWorld(testConfig("loopback", 16))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := tapSends(w)
	forged := &keytree.Message{Interval: w.Tree().Interval() + 1}
	for _, m := range w.Members() {
		forged.Encryptions = append(forged.Encryptions, keycrypt.Encryption{
			ID: m.ID().Prefix(1), KeyID: ident.EmptyPrefix, KeyVersion: 1, Ciphertext: []byte("forged"),
		})
	}
	frame, err := wire.MarshalRekey(forged, 1)
	if err != nil {
		t.Fatal(err)
	}
	members := w.Members()
	for i, m := range members {
		m.handle(PeerOf(members[(i+1)%len(members)].ID()), frame)
	}
	if n := len(rec.all()); n != 0 {
		t.Fatalf("members sent %d frames for an interval the server never opened", n)
	}
}

// mute is an endpoint that takes no handler and drops every frame.
type mute struct{ transport.Transport }

func (mute) Send(transport.PeerID, []byte) error { return nil }
func (mute) SetHandler(transport.Handler)        {}

// TestMemberHandleAllocations bounds what a member allocates for a
// leaf-level rekey frame (a unicast rung: applied, never forwarded):
// one AES-GCM set-up per unwrap and the ack frame. The frame decodes
// into the member's own message, the ciphertexts alias the frame, and
// the unwraps run in the member's own scratch.
func TestMemberHandleAllocations(t *testing.T) {
	cfg := testConfig("loopback", 16)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// The survivor nearest the leaver needs the most keys.
	members := w.Members()
	leaver, id, shared := members[0].ID(), ident.ID{}, -1
	for _, m := range members[1:] {
		l := cfg.Params.Digits
		for !m.ID().HasPrefix(leaver.Prefix(l)) {
			l--
		}
		if l > shared {
			id, shared = m.ID(), l
		}
	}
	path, err := w.Tree().PathKeys(id)
	if err != nil {
		t.Fatal(err)
	}
	rings := make([]*keytree.Keyring, 101) // AllocsPerRun's warm-up plus 100 runs
	for i := range rings {
		if rings[i], err = keytree.NewKeyring(cfg.Params, id, path); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Leave(leaver); err != nil {
		t.Fatal(err)
	}
	full, _, _, err := w.tree.Flush(&w.pending, 0)
	if err != nil {
		t.Fatal(err)
	}
	needed := recovery.NeededBy(full, id)
	frame, err := wire.MarshalRekey(&keytree.Message{Interval: full.Interval, Encryptions: needed}, cfg.Params.Digits)
	if err != nil {
		t.Fatal(err)
	}

	raw := path[0].Key.Bytes()
	aead := testing.AllocsPerRun(100, func() {
		block, err := aes.NewCipher(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cipher.NewGCM(block); err != nil {
			t.Fatal(err)
		}
	})
	m := NewMember(id, cfg.Params, mute{}, w.sh, rings[0], full.Interval-1, nil)
	i := 0
	got := testing.AllocsPerRun(len(rings)-1, func() {
		m.kr, m.applied = rings[i], full.Interval-1
		m.handle(transport.ServerID, frame)
		if m.applied != full.Interval {
			t.Fatalf("run %d: the frame left the member at interval %d, want %d", i, m.applied, full.Interval)
		}
		i++
	})
	want := float64(len(needed))*aead + 1
	t.Logf("%d unwraps: %.0f allocations per frame (AEAD set-up %.0f)", len(needed), got, aead)
	if len(needed) < 2 || got > want {
		t.Errorf("handling a frame of %d encryptions allocates %.0f times, want at most %.0f", len(needed), got, want)
	}
}

// TestWarmForwardAllocatesOneBuffer: once a forwarder's storage has
// grown, one forward call of F copies allocates one buffer, all F
// frames in it. The hops and shares live in the forwarder, and a
// published neighbour's routing key is its endpoint's own ID.
func TestWarmForwardAllocatesOneBuffer(t *testing.T) {
	w, err := NewWorld(testConfig("loopback", 16))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	members := w.Members()
	if err := w.Leave(members[0].ID()); err != nil {
		t.Fatal(err)
	}
	full, _, _, err := w.tree.Flush(&w.pending, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.sh.openInterval(full.Interval)
	// The server at level 0, and the member that forwards the most
	// copies at level 1.
	var busiest *Member
	most := 0
	for _, m := range members[1:] {
		if n := w.sh.forward(mute{m.tr}, full, m.ID(), 1, &forwarder{}); n > most {
			busiest, most = m, n
		}
	}
	if busiest == nil {
		t.Fatal("no member forwards a copy")
	}
	for _, c := range []struct {
		name  string
		tr    transport.Transport
		from  ident.ID
		level int
	}{{"server", w.srv.tr, ident.ID{}, 0}, {"member", busiest.tr, busiest.ID(), 1}} {
		var f forwarder
		var tr transport.Transport = mute{c.tr} // boxed once, outside the count
		copies := 0
		allocs := testing.AllocsPerRun(100, func() {
			copies = w.sh.forward(tr, full, c.from, c.level, &f)
		})
		if copies < 2 || allocs != 1 {
			t.Errorf("%s: a warm forward of %d copies allocates %.0f times, want 1 (and at least 2 copies)", c.name, copies, allocs)
		}
		if slices.ContainsFunc(f.share[:cap(f.share)], func(e keycrypt.Encryption) bool { return e.Ciphertext != nil }) {
			t.Errorf("%s: the forwarder's storage still holds a ciphertext after the call", c.name)
		}
	}
}

// TestConcurrentCopyAndRungOverTCP: a TCP endpoint reads each inbound
// connection on its own goroutine, so one member may handle a
// multicast copy from its forwarder and a unicast rung from the server
// at the same moment. Its receive lock serializes them: under -race
// (make soak-transport) nothing races on its decode or forward
// storage, every frame counts as a copy, and the member ends holding
// the interval's group key.
func TestConcurrentCopyAndRungOverTCP(t *testing.T) {
	cfg := testConfig("tcp", 16)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	members := w.Members()
	if err := w.Leave(members[0].ID()); err != nil {
		t.Fatal(err)
	}
	full, _, _, err := w.tree.Flush(&w.pending, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.sh.openInterval(full.Interval)
	m, upstream := members[1], members[2]
	to := PeerOf(m.ID())
	// The copy is split to m's level-1 subtree, so m forwards it on as
	// well; the rung is terminal.
	copyFrame, err := wire.MarshalRekey(&keytree.Message{Interval: full.Interval,
		Encryptions: split.AppendShare(nil, full.Encryptions, m.ID().Prefix(1))}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rung, err := wire.MarshalRekey(&keytree.Message{Interval: full.Interval,
		Encryptions: recovery.NeededBy(full, m.ID())}, cfg.Params.Digits)
	if err != nil {
		t.Fatal(err)
	}
	if err := upstream.tr.AddPeer(to, m.tr.Addr()); err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	var wg sync.WaitGroup
	for _, s := range []struct {
		tr    transport.Transport
		frame []byte
	}{{upstream.tr, copyFrame}, {w.srv.tr, rung}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.tr.Send(to, s.frame); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); m.CopiesOf(full.Interval) < 2*rounds; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames handled", m.CopiesOf(full.Interval), 2*rounds)
		}
	}
	want, _ := w.Tree().GroupKey()
	if got, ok := m.GroupKey(); !ok || !got.Equal(want) || m.Applied() != full.Interval {
		t.Fatalf("member at interval %d (want %d), holds the group key: %v", m.Applied(), full.Interval, ok && got.Equal(want))
	}
}
