package chaos

import (
	"math/rand"
	"testing"
	"time"

	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/overlay"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
)

// detectorWorld joins n random IDs into a K-consistent directory on a
// small GT-ITM net whose access RTTs stay below 10 ms, and arms a
// detector over it on a fresh simulator.
func detectorWorld(t *testing.T, n, k int, seed int64) (*detector, []overlay.Record) {
	t.Helper()
	cfg := vnet.GTITMConfig{
		TransitDomains:   2,
		TransitPerDomain: 2,
		StubsPerTransit:  2,
		TotalRouters:     120,
		TotalLinks:       300,
		AccessDelayMin:   time.Millisecond,
		AccessDelayMax:   3 * time.Millisecond,
	}
	net, err := vnet.NewGTITM(cfg, n+1, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := overlay.NewDirectory(soakParams, k, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var recs []overlay.Record
	for len(recs) < n {
		id, err := ident.FromInt(soakParams, rng.Intn(soakParams.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		if _, taken := dir.Record(id); taken {
			continue
		}
		r := overlay.Record{Host: vnet.HostID(len(recs) + 1), ID: id}
		if err := dir.Join(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	return newDetector(dir, eventsim.New(), rand.New(rand.NewSource(1))), recs
}

// purged fails the test unless the victim has left the membership view
// and no table holds it.
func purged(t *testing.T, dir *overlay.Directory, victim ident.ID) {
	t.Helper()
	if _, ok := dir.Record(victim); ok {
		t.Errorf("victim %v still in the membership view", victim)
	}
	if h := dir.Holders(victim); len(h) != 0 {
		t.Errorf("victim %v still held by %d tables", victim, len(h))
	}
}

func TestDetectionAndRepair(t *testing.T) {
	d, recs := detectorWorld(t, 40, 3, 7)
	failed := recs[5].ID
	if len(d.dir.Holders(failed)) == 0 {
		t.Fatal("no table holds the victim; test is vacuous")
	}
	failAt := 10 * time.Second
	d.kill(failed, failAt)

	// No owner can detect before misses-1 whole ping intervals have
	// passed, and every owner has by the worst case: a whole interval of
	// phase, misses-1 more, and the timeout (access RTTs here < 10 ms).
	d.sim.RunUntil(failAt + (misses-1)*pingInterval)
	if _, ok := d.dir.Record(failed); !ok {
		t.Fatalf("victim evicted within %v of its crash", (misses-1)*pingInterval)
	}
	d.sim.RunUntil(failAt + misses*pingInterval + 2*10*time.Millisecond)
	purged(t, d.dir, failed)
	if err := d.dir.CheckConsistency(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if !d.up(recs[0].ID) || d.up(failed) {
		t.Error("liveness view wrong")
	}
}

// TestMulticastDuringRecovery: between the crash and the detections,
// T-mesh already routes around the dead primary via the liveness view,
// so live users keep receiving multicasts.
func TestMulticastDuringRecovery(t *testing.T) {
	d, recs := detectorWorld(t, 40, 4, 11)
	failed := recs[9].ID
	d.kill(failed, time.Second)
	// Run only past the crash, before any detection fires.
	d.sim.RunUntil(1100 * time.Millisecond)
	res, err := tmesh.Multicast(tmesh.Config[int]{Dir: d.dir, Alive: d.up}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.ID.Equal(failed) {
			continue
		}
		st := res.Users[r.ID.Key()]
		if st == nil || st.Received != 1 {
			t.Errorf("user %v received %+v during recovery window", r.ID, st)
		}
	}
	// Finish recovery; consistency restored.
	d.sim.Run()
	if err := d.dir.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestMultipleFailures: several concurrent crashes all get cleaned up.
func TestMultipleFailures(t *testing.T) {
	d, recs := detectorWorld(t, 50, 3, 13)
	victims := []ident.ID{recs[1].ID, recs[17].ID, recs[33].ID}
	for i, v := range victims {
		d.kill(v, time.Duration(i+1)*500*time.Millisecond)
	}
	before := d.dir.MaintenanceMessages()
	d.sim.Run()
	for _, v := range victims {
		purged(t, d.dir, v)
	}
	if err := d.dir.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if d.dir.MaintenanceMessages() == before {
		t.Error("repairs should cost messages")
	}
}

func TestNextTick(t *testing.T) {
	iv := 2 * time.Second
	tests := []struct {
		t, phase, want time.Duration
	}{
		{0, 500 * time.Millisecond, 500 * time.Millisecond},
		{500 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond},
		{600 * time.Millisecond, 500 * time.Millisecond, 2500 * time.Millisecond},
		{4500 * time.Millisecond, 500 * time.Millisecond, 4500 * time.Millisecond},
		{4501 * time.Millisecond, 500 * time.Millisecond, 6500 * time.Millisecond},
	}
	for _, tt := range tests {
		if got := nextTick(tt.t, tt.phase, iv); got != tt.want {
			t.Errorf("nextTick(%v, %v) = %v, want %v", tt.t, tt.phase, got, tt.want)
		}
	}
}

// sharedEntryVictims finds an owner whose table has an entry holding at
// least two neighbors, and returns the owner plus those two neighbors.
// Killing both puts two members of the same ID subtree into one
// detection window.
func sharedEntryVictims(t *testing.T, dir *overlay.Directory, recs []overlay.Record) (owner, v1, v2 ident.ID) {
	t.Helper()
	for _, r := range recs {
		tab, _ := dir.TableOf(r.ID)
		for i := 0; i < soakParams.Digits; i++ {
			for j := 0; j < soakParams.Base; j++ {
				if ns := tab.Entry(i, ident.Digit(j)).Neighbors(); len(ns) >= 2 {
					return r.ID, ns[0].ID, ns[1].ID
				}
			}
		}
	}
	t.Fatal("no entry with two neighbors found")
	return
}

// spareVictims finds an owner with a full entry whose ID subtree holds
// more members than the entry (m > K), and returns a neighbor in the
// entry (v1) plus the spare subtree member the refill would pick first —
// the nearest candidate not already in the entry (v2). Killing v1 makes
// the owner repair that entry; killing v2 just before the repair runs
// makes the dead, not-yet-evicted v2 the top refill candidate.
func spareVictims(t *testing.T, dir *overlay.Directory, recs []overlay.Record) (owner, v1, v2 ident.ID) {
	t.Helper()
	net := dir.Network()
	for _, r := range recs {
		tab, _ := dir.TableOf(r.ID)
		for i := 0; i < soakParams.Digits; i++ {
			for j := 0; j < soakParams.Base; j++ {
				entry := tab.Entry(i, ident.Digit(j))
				if entry.Len() < dir.K() {
					continue
				}
				members := dir.Members(r.ID.Prefix(i).Child(ident.Digit(j)))
				var spare *overlay.Record
				for k := range members {
					c := members[k]
					if tab.Contains(c.ID) {
						continue
					}
					if spare == nil || net.RTT(r.Host, c.Host) < net.RTT(r.Host, spare.Host) {
						spare = &members[k]
					}
				}
				if spare != nil {
					return r.ID, entry.Neighbors()[0].ID, spare.ID
				}
			}
		}
	}
	t.Fatal("no entry with a spare subtree member found")
	return
}

// holdersSet lists the owners whose tables currently hold the user.
func holdersSet(dir *overlay.Directory, id ident.ID) map[string]bool {
	out := make(map[string]bool)
	for _, owner := range dir.Holders(id) {
		out[owner.Key()] = true
	}
	return out
}

// TestOverlappingFailures crashes two neighbors of the same owner within
// one detection window AND crashes the owner itself while its own
// detection is pending. The directory must converge back to
// K-consistency with all three victims fully purged, and the dead owner
// must not act on its ghost detection.
func TestOverlappingFailures(t *testing.T) {
	d, recs := detectorWorld(t, 50, 3, 21)
	owner, v1, v2 := sharedEntryVictims(t, d.dir, recs)
	t1 := 10 * time.Second
	d.kill(v1, t1)
	d.kill(v2, t1+800*time.Millisecond)
	// The owner dies one second before it would detect v1, so its own
	// eviction (at least misses-1 ping intervals later) comes after that
	// detection would have fired.
	ghostAt := d.detectAt(owner, t1)
	d.kill(owner, ghostAt-time.Second)

	d.sim.RunUntil(ghostAt)
	tab, ok := d.dir.TableOf(owner)
	if !ok {
		t.Fatal("test staging broken: owner evicted before its own detection")
	}
	if !tab.Contains(v1) {
		t.Errorf("dead owner %v repaired its table: a ghost detection of %v", owner, v1)
	}
	d.sim.Run()
	for _, v := range []ident.ID{owner, v1, v2} {
		purged(t, d.dir, v)
	}
	if err := d.dir.CheckConsistency(); err != nil {
		t.Fatalf("after overlapping failures: %v", err)
	}
}

// TestCrashDuringInFlightRepair stages the exact race the liveness view
// exists for: v2 crashes just before the repairs triggered by v1's
// detections run, so those repairs see v2 as a dead-but-unevicted refill
// candidate. No table may adopt v2 during that window, and the directory
// must end K-consistent.
func TestCrashDuringInFlightRepair(t *testing.T) {
	d, recs := detectorWorld(t, 50, 3, 23)
	_, v1, v2 := spareVictims(t, d.dir, recs)
	t1 := time.Second
	d.kill(v1, t1)
	// v1's detections land from misses-1 ping intervals after its crash.
	// v2 dies just before they start firing and cannot be evicted before
	// misses-1 intervals after its own crash.
	t2 := t1 + (misses-1)*pingInterval - 100*time.Millisecond
	d.kill(v2, t2)

	d.sim.RunUntil(t2 - 100*time.Millisecond)
	before := holdersSet(d.dir, v2)
	// Run through v1's repair window, up to v2's earliest eviction.
	d.sim.RunUntil(t2 + (misses-1)*pingInterval)
	if _, ok := d.dir.Record(v2); !ok {
		t.Fatal("test staging broken: v2 already evicted")
	}
	for key := range holdersSet(d.dir, v2) {
		if !before[key] {
			t.Errorf("repair adopted dead user %v into %v's table", v2, ident.IDFromKey(key))
		}
	}

	d.sim.Run()
	for _, v := range []ident.ID{v1, v2} {
		purged(t, d.dir, v)
	}
	if err := d.dir.CheckConsistency(); err != nil {
		t.Fatalf("after crash-during-repair: %v", err)
	}
}
