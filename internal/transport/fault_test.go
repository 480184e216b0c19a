package transport

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// faultyPair builds two loopback endpoints sharing one fault plan.
func faultyPair(t *testing.T, plan *FaultPlan) (a, b *Faulty) {
	t.Helper()
	sw := NewSwitch()
	la, err := NewLoopback(sw, Config{ID: "A"})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLoopback(sw, Config{ID: "B"})
	if err != nil {
		t.Fatal(err)
	}
	a = WithFaults(la, plan, nil)
	b = WithFaults(lb, plan, nil)
	a.AddPeer("B", "B")
	b.AddPeer("A", "A")
	return a, b
}

// TestFaultLossAccounted: with 100% loss nothing arrives, and every
// eaten frame is attributed to the loss counter — no silent drops.
func TestFaultLossAccounted(t *testing.T) {
	check := guardGoroutines(t)
	plan := NewFaultPlan(42)
	a, b := faultyPair(t, plan)
	var cb collector
	b.SetHandler(cb.handler())

	plan.SetLoss(1.0)
	for i := 0; i < 10; i++ {
		if err := a.Send("B", []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Stats().DroppedLoss; got != 10 {
		t.Fatalf("DroppedLoss = %d, want 10", got)
	}
	if cb.has("A", []byte("doomed")) {
		t.Fatal("frame survived 100% loss")
	}
	plan.SetLoss(0)
	waitDelivered(t, a, "B", "A", []byte("clear skies"), &cb)
	a.Close()
	b.Close()
	check()
}

// TestFaultPartitionAndHeal: frames crossing the cut drop in both
// directions with partition accounting; healing restores flow.
func TestFaultPartitionAndHeal(t *testing.T) {
	check := guardGoroutines(t)
	plan := NewFaultPlan(42)
	a, b := faultyPair(t, plan)
	var ca, cb collector
	a.SetHandler(ca.handler())
	b.SetHandler(cb.handler())

	plan.Partition([]PeerID{"B"})
	if err := a.Send("B", []byte("cut")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("A", []byte("cut back")); err != nil {
		t.Fatal(err)
	}
	if a.Stats().DroppedPartition != 1 || b.Stats().DroppedPartition != 1 {
		t.Fatalf("partition drops: a=%+v b=%+v", a.Stats(), b.Stats())
	}
	plan.HealPartition()
	waitDelivered(t, a, "B", "A", []byte("healed"), &cb)
	waitDelivered(t, b, "A", "B", []byte("healed back"), &ca)
	if cb.has("A", []byte("cut")) || ca.has("B", []byte("cut back")) {
		t.Fatal("partitioned frame leaked through")
	}
	a.Close()
	b.Close()
	check()
}

// TestFaultKillRestore: a killed peer neither sends nor receives; a
// restored peer rejoins cleanly.
func TestFaultKillRestore(t *testing.T) {
	check := guardGoroutines(t)
	plan := NewFaultPlan(42)
	a, b := faultyPair(t, plan)
	var cb collector
	b.SetHandler(cb.handler())

	plan.Kill("B")
	if err := a.Send("B", []byte("to the dead")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("A", []byte("from the dead")); err != nil {
		t.Fatal(err)
	}
	if a.Stats().DroppedKill != 1 {
		t.Fatalf("a DroppedKill = %d, want 1", a.Stats().DroppedKill)
	}
	if b.Stats().DroppedKill != 1 {
		t.Fatalf("b DroppedKill = %d, want 1 (killed peers cannot send)", b.Stats().DroppedKill)
	}
	if !plan.Killed("B") || plan.Killed("A") {
		t.Fatal("Killed() bookkeeping wrong")
	}
	plan.Restore("B")
	waitDelivered(t, a, "B", "A", []byte("welcome back"), &cb)
	if cb.has("A", []byte("to the dead")) {
		t.Fatal("frame to killed peer was delivered")
	}
	a.Close()
	b.Close()
	check()
}

// TestFaultDelayDelivers: a delay spike postpones but does not lose
// the frame, and Close waits for in-flight delayed frames (the leak
// guard would catch a stray timer goroutine).
func TestFaultDelayDelivers(t *testing.T) {
	check := guardGoroutines(t)
	plan := NewFaultPlan(42)
	a, b := faultyPair(t, plan)
	var cb collector
	b.SetHandler(cb.handler())

	plan.SetDelay(1.0, 30*time.Millisecond, 60*time.Millisecond)
	start := time.Now()
	if err := a.Send("B", []byte("late")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return cb.has("A", []byte("late")) })
	if took := time.Since(start); took < 25*time.Millisecond {
		t.Fatalf("frame arrived in %v, want >= ~30ms delay", took)
	}
	if a.Stats().Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", a.Stats().Delayed)
	}
	// A frame delayed into a partition still drops on delivery.
	if err := a.Send("B", []byte("delayed into the cut")); err != nil {
		t.Fatal(err)
	}
	plan.Partition([]PeerID{"B"})
	waitFor(t, func() bool { return a.Stats().DroppedPartition >= 1 })
	if cb.has("A", []byte("delayed into the cut")) {
		t.Fatal("delayed frame crossed a partition that formed mid-flight")
	}
	a.Close()
	b.Close()
	check()
}

// TestFaultLossDrawnOnce: SetLoss(p) loses a share p of frames. The
// loss coin is drawn once per frame, at the sender; the receiving
// shield only enforces kills and partitions, so a frame is never
// judged lossy twice (which would lose 1-(1-p)^2 of them).
func TestFaultLossDrawnOnce(t *testing.T) {
	check := guardGoroutines(t)
	plan := NewFaultPlan(42)
	a, b := faultyPair(t, plan)
	var delivered atomic.Int64
	b.SetHandler(func(PeerID, []byte) { delivered.Add(1) })

	const frames, batch = 4000, 100 // batches stay inside the send queue
	plan.SetLoss(0.5)
	accounted := func() int64 {
		return delivered.Load() + int64(a.Stats().DroppedLoss+b.Stats().DroppedLoss)
	}
	for sent := int64(batch); sent <= frames; sent += batch {
		for i := 0; i < batch; i++ {
			if err := a.Send("B", []byte("coin")); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, func() bool { return accounted() == sent })
	}
	if share := float64(delivered.Load()) / frames; share < 0.45 || share > 0.55 {
		t.Fatalf("SetLoss(0.5) delivered %d of %d frames (%.3f), want 0.5±0.05", delivered.Load(), frames, share)
	}
	a.Close()
	b.Close()
	check()
}

// TestFaultPlanDeterministic: same seed, same single-threaded
// decision sequence.
func TestFaultPlanDeterministic(t *testing.T) {
	run := func() string {
		plan := NewFaultPlan(7)
		plan.SetLoss(0.5)
		s := ""
		for i := 0; i < 64; i++ {
			v := plan.judge("A", "B", true)
			if v.drop {
				s += "d"
			} else {
				s += "."
			}
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
}

// TestFaultWrapperPassthrough: the wrapper preserves the inner
// transport's contract when the plan is empty.
func TestFaultWrapperPassthrough(t *testing.T) {
	check := guardGoroutines(t)
	plan := NewFaultPlan(1)
	a, b := faultyPair(t, plan)
	var cb collector
	b.SetHandler(cb.handler())
	for i := 0; i < 5; i++ {
		waitDelivered(t, a, "B", "A", []byte(fmt.Sprintf("frame-%d", i)), &cb)
	}
	if a.ID() != "A" || a.Addr() != "A" {
		t.Fatalf("identity passthrough: %q %q", a.ID(), a.Addr())
	}
	st, ok := a.Status("B")
	if !ok || st.Sent < 5 {
		t.Fatalf("status passthrough: %+v ok=%v", st, ok)
	}
	a.Close()
	b.Close()
	check()
}
