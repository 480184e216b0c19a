package core

import (
	"slices"
	"testing"
	"time"

	"tmesh/internal/keytree"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
	"tmesh/internal/workload"
)

func TestRunSessionValidation(t *testing.T) {
	g := newGroup(t, 5, false)
	sched := &workload.Schedule{}
	if _, err := RunSession(SessionConfig{Schedule: sched, Interval: time.Second}); err == nil {
		t.Error("nil group should fail")
	}
	if _, err := RunSession(SessionConfig{Group: g, Interval: time.Second}); err == nil {
		t.Error("nil schedule should fail")
	}
	if _, err := RunSession(SessionConfig{Group: g, Schedule: sched}); err == nil {
		t.Error("zero interval should fail")
	}
}

func TestRunSessionEndToEnd(t *testing.T) {
	sched, err := workload.Generate(workload.Config{
		InitialJoins: 30,
		WarmUp:       300 * time.Second,
		ChurnJoins:   10,
		ChurnLeaves:  8,
		Interval:     100 * time.Second,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, sched.Hosts+1, false)
	intervals := 0
	var reports []*split.Report
	stats, err := RunSession(SessionConfig{
		Group:    g,
		Schedule: sched,
		Interval: 100 * time.Second,
		OnInterval: func(i int, msg *keytree.Message, rep *split.Report) {
			intervals++
			if i != intervals {
				t.Errorf("interval callback out of order: %d vs %d", i, intervals)
			}
			reports = append(reports, rep)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Joins != 40 || stats.Leaves != 8 {
		t.Errorf("joins/leaves = %d/%d, want 40/8", stats.Joins, stats.Leaves)
	}
	if stats.FinalSize != 32 || g.Size() != 32 {
		t.Errorf("final size = %d, want 32", stats.FinalSize)
	}
	if stats.Intervals != intervals || intervals < 4 {
		t.Errorf("intervals = %d (callbacks %d)", stats.Intervals, intervals)
	}
	if stats.TotalRekeyCost == 0 || stats.PeakRekeyCost == 0 {
		t.Error("rekey costs should be nonzero")
	}
	if stats.PeakRekeyCost > stats.TotalRekeyCost {
		t.Error("peak exceeds total")
	}
	// All current members share the server's group key after the run.
	want, ok := g.ServerGroupKey()
	if !ok {
		t.Fatal("no group key")
	}
	for _, id := range g.Dir().IDs() {
		got, ok := g.GroupKeyOf(id)
		if !ok || !got.Equal(want) {
			t.Fatalf("member %v diverged after session", id)
		}
	}
	if err := g.Dir().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRunSessionClusterMode(t *testing.T) {
	sched, err := workload.Generate(workload.Config{
		InitialJoins: 24,
		WarmUp:       200 * time.Second,
		ChurnJoins:   6,
		ChurnLeaves:  6,
		Interval:     100 * time.Second,
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := newGroup(t, sched.Hosts+1, true)
	stats, err := RunSession(SessionConfig{
		Group:    g,
		Schedule: sched,
		Interval: 100 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalSize != 24 {
		t.Errorf("final size = %d, want 24", stats.FinalSize)
	}
	// The leaders-only tree keeps the rekey costs below a plain modified
	// tree's initial batch for the same membership.
	if g.Clusters().Tree().Size() > g.Size() {
		t.Error("leader tree larger than group")
	}
	want, ok := g.ServerGroupKey()
	if !ok {
		t.Fatal("no group key")
	}
	for _, id := range g.Dir().IDs() {
		if got, ok := g.GroupKeyOf(id); !ok || !got.Equal(want) {
			t.Fatalf("member %v diverged in cluster mode", id)
		}
	}
}

// TestSessionBoundaryEdges pins the boundary rule: an event exactly at
// k·Interval belongs to interval k+1, and a schedule whose last event
// sits on a boundary still gets the interval that batches it.
func TestSessionBoundaryEdges(t *testing.T) {
	const interval = 10 * time.Second
	sched := &workload.Schedule{Hosts: 3, Events: []workload.Event{
		{At: 0, Kind: workload.Join, Host: 0},
		{At: time.Second, Kind: workload.Join, Host: 1},
		{At: interval, Kind: workload.Join, Host: 2},
	}}

	g := newGroup(t, 4, false)
	s := NewSession(g, sched)
	if err := s.Advance(interval); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 || s.Done() {
		t.Fatalf("after interval 1: size %d, done %v; the event at the boundary belongs to interval 2", g.Size(), s.Done())
	}
	if _, _, err := s.EndInterval(); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(2 * interval); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 3 || !s.Done() {
		t.Fatalf("after interval 2: size %d, done %v", g.Size(), s.Done())
	}

	g = newGroup(t, 4, false)
	var costs []int
	stats, err := RunSession(SessionConfig{
		Group:    g,
		Schedule: sched,
		Interval: interval,
		OnInterval: func(_ int, msg *keytree.Message, _ *split.Report) {
			costs = append(costs, msg.Cost())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Intervals != 2 || len(costs) != 2 || costs[1] == 0 {
		t.Fatalf("intervals %d, costs %v: the boundary join needs a final interval of its own", stats.Intervals, costs)
	}
	for _, id := range g.Dir().IDs() {
		if _, ok := g.KeyringOf(id); !ok {
			t.Errorf("member %v was never keyed", id)
		}
	}
}

// TestSessionHostMapping: schedule index i joins at host ServerHost+1+i,
// so groups sharing one topology each sit in the block after their key
// server.
func TestSessionHostMapping(t *testing.T) {
	const server = 5
	g, err := NewGroup(Config{
		Net: testNet(t, 10), ServerHost: server, Assign: smallAssign(), K: 2, Seed: 5, RealCrypto: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := &workload.Schedule{Hosts: 3}
	for i := 0; i < 3; i++ {
		sched.Events = append(sched.Events, workload.Event{Kind: workload.Join, Host: i})
	}
	if err := NewSession(g, sched).Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	var hosts []vnet.HostID
	for _, id := range g.Dir().IDs() {
		rec, _ := g.Dir().Record(id)
		hosts = append(hosts, rec.Host)
	}
	slices.Sort(hosts)
	if want := []vnet.HostID{server + 1, server + 2, server + 3}; !slices.Equal(hosts, want) {
		t.Fatalf("schedule hosts 0..2 joined at %v, want %v", hosts, want)
	}
}
