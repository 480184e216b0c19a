package tmesh

import (
	"testing"
	"time"

	"tmesh/internal/eventsim"
)

func TestNewUplinksValidation(t *testing.T) {
	if _, err := NewUplinks(0, 80, 40); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewUplinks(-1, 80, 40); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := NewUplinks(1000, -1, 40); err == nil {
		t.Error("negative unit size should fail")
	}
	if _, err := NewUplinks(1000, 80, -1); err == nil {
		t.Error("negative header should fail")
	}
}

func TestUplinkSerialization(t *testing.T) {
	u, err := NewUplinks(1000, 10, 0) // 1000 B/s, 10 B per unit
	if err != nil {
		t.Fatal(err)
	}
	// First message: 10 units = 100 B = 100 ms.
	end1 := u.Reserve(1, 10, 0)
	if end1 != 100*time.Millisecond {
		t.Errorf("first tx ends at %v, want 100ms", end1)
	}
	// Second message queued behind the first.
	end2 := u.Reserve(1, 5, 0)
	if end2 != 150*time.Millisecond {
		t.Errorf("second tx ends at %v, want 150ms", end2)
	}
	// A different host's uplink is independent.
	if end := u.Reserve(2, 1, 0); end != 10*time.Millisecond {
		t.Errorf("other host tx ends at %v, want 10ms", end)
	}
	// Idle gap: a message after the queue drained starts at now.
	if end := u.Reserve(1, 1, time.Second); end != time.Second+10*time.Millisecond {
		t.Errorf("post-idle tx ends at %v", end)
	}
}

func TestUplinkHeaderBytes(t *testing.T) {
	u, err := NewUplinks(1000, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if end := u.Reserve(1, 100, 0); end != 50*time.Millisecond {
		t.Errorf("header-only tx = %v, want 50ms", end)
	}
}

// TestSharedSimulatorConcurrentSessions: two sessions on one simulator
// share uplinks; the second session's copies queue behind the first's at
// common forwarders.
func TestSharedSimulatorConcurrentSessions(t *testing.T) {
	dir, recs := buildGroup(t, 2, 30, 91)
	sim := eventsim.New()
	// Slow uplinks: 1000 B/s, 100 B per unit -> 1 unit = 100 ms.
	up, err := NewUplinks(1000, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Multicast(Config[int]{
		Dir: dir, Sim: sim, Uplinks: up,
		SizeOf: func(u int) int { return u },
	}, 50) // a 5-second transmission per copy
	if err != nil {
		t.Fatal(err)
	}
	small, err := Multicast(Config[int]{
		Dir: dir, SenderID: recs[0].ID, Sim: sim, Uplinks: up,
		StartAt: 10 * time.Millisecond,
		SizeOf:  func(u int) int { return u },
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Results are not final until the shared simulator runs.
	if countReceived(big) != 0 || countReceived(small) != 0 {
		t.Fatal("results should be empty before the simulator runs")
	}
	sim.Run()
	for _, r := range recs {
		st := big.Users[r.ID]
		if st == nil || st.Received != 1 {
			t.Fatalf("big session: user %v received %+v", r.ID, st)
		}
	}
	for _, r := range recs[1:] {
		st := small.Users[r.ID]
		if st == nil || st.Received != 1 {
			t.Fatalf("small session: user %v received %+v", r.ID, st)
		}
	}
	// The small session started while the server's burst was draining:
	// its worst-case delivery is far beyond the uncongested delays.
	var worstSmall time.Duration
	for _, st := range small.Users {
		if st.Delay > worstSmall {
			worstSmall = st.Delay
		}
	}
	if worstSmall < 500*time.Millisecond {
		t.Errorf("small session unaffected by the burst: worst delay %v", worstSmall)
	}
	if big.Duration == 0 || small.Duration == 0 {
		t.Error("durations should be recorded on shared simulators")
	}
}

func countReceived(r *Result) int {
	n := 0
	for _, st := range r.Users {
		n += st.Received
	}
	return n
}

// TestUncongestedUplinksPreserveTheorem1: the uplink model must not
// break exactly-once delivery.
func TestUncongestedUplinksPreserveTheorem1(t *testing.T) {
	dir, recs := buildGroup(t, 2, 25, 93)
	up, err := NewUplinks(1e9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Multicast(Config[int]{Dir: dir, Uplinks: up}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if st := res.Users[r.ID]; st == nil || st.Received != 1 {
			t.Fatalf("user %v received %+v", r.ID, st)
		}
	}
}

func TestNegativeStartAtRejected(t *testing.T) {
	dir, _ := buildGroup(t, 1, 3, 95)
	if _, err := Multicast(Config[int]{Dir: dir, StartAt: -1}, 1); err == nil {
		t.Error("negative StartAt should fail")
	}
}

// TestEarliestPrimaryRow: with the footnote-8 override, hops through the
// configured row go to the earliest-joined member of each subtree.
func TestEarliestPrimaryRow(t *testing.T) {
	dir, recs := buildGroup(t, 4, 40, 97)
	row := tp.Digits - 2
	res, err := Multicast(Config[int]{
		Dir:                dir,
		EarliestPrimaryRow: row,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Delivery is still exactly-once.
	for _, r := range recs {
		st := res.Users[r.ID]
		if st == nil || st.Received != 1 {
			t.Fatalf("user %v received %+v", r.ID, st)
		}
	}
	// Every user that received at forwarding level row+1 must be the
	// earliest-joined live member among its (row, j)-entry peers in the
	// upstream's table.
	checked := 0
	for _, r := range recs {
		st := res.Users[r.ID]
		if st.Level != row+1 || st.UpstreamID.IsZero() {
			continue
		}
		upTable, ok := dir.TableOf(st.UpstreamID)
		if !ok {
			continue
		}
		entry := upTable.Entry(row, r.ID.Digit(row))
		want, ok := entry.PrimaryEarliest(nil)
		if !ok {
			t.Fatalf("empty entry delivered to %v", r.ID)
		}
		if !want.ID.Equal(r.ID) {
			t.Errorf("hop at row %d went to %v, want earliest-joined %v", row, r.ID, want.ID)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no hops at the override row in this topology")
	}
}
