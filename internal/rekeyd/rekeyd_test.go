package rekeyd

import (
	"runtime"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/transport"
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
		if k == victim.Key() {
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

// TestAckLedgerReleased pins the server's per-interval bookkeeping to
// the interval actually in flight: after every Distribute returns no
// ledger is open (it used to keep one N-entry map per interval
// forever), and re-distributing a closed interval is refused without
// touching the split index members may still be forwarding with.
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
		live := w.sh.Index(res.Interval)
		if _, err := w.srv.Distribute(&keytree.Message{Interval: res.Interval}, nil); err == nil {
			t.Fatalf("interval %d distributed twice without an error", res.Interval)
		}
		if w.sh.Index(res.Interval) != live {
			t.Fatalf("interval %d: refused duplicate Distribute replaced the live split index", res.Interval)
		}
	}
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
