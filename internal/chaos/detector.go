package chaos

import (
	"math/rand"
	"time"

	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/overlay"
)

// crash is one entry of the soak's crash table.
type crash struct {
	id ident.ID
	at time.Duration
	// down is set when the crash fires: from then on the user answers no
	// ping and forwards nothing.
	down bool
	// reaped is set once the engine has seen the eviction and queued the
	// user's leave into the key-tree batch.
	reaped bool
}

// detector is the failure detection and recovery of Section 3.2 over the
// soak's event engine:
//
//	"User u detects the failure of a neighbor if the neighbor does not
//	respond to consecutive ping messages. Upon detecting the failure of
//	a neighbor, u sends the key server a notification message. It also
//	needs to contact some other users to look for appropriate users to
//	replace the failed one."
//
// Every owner pings its neighbors every pingInterval, at its own random
// phase. When a user crashes, each owner that holds it detects the
// failure after `misses` unanswered pings plus a timeout of two access
// RTTs. The first notification evicts the user, and every detector
// repairs its own entry: a crash is one overlay.Directory.Evict plus one
// Directory.Repair per holder, the recovery rekeyd.World plays at its
// boundary. Multicast keeps flowing meanwhile: T-mesh routes around dead
// primaries through same-entry fallbacks (up is the transport's Alive),
// so recovery is not on the delivery critical path.
type detector struct {
	dir *overlay.Directory
	sim *eventsim.Simulator
	rng *rand.Rand // draws the ping phases
	// phase holds each owner's ping phase in [0, pingInterval).
	phase map[string]time.Duration
	// crashes is the crash table the engine shares: every kill, by ID,
	// until a joiner reuses the ID.
	crashes map[string]*crash
}

// newDetector enrols the directory's current members and makes every
// table build and refill consult the detector's liveness view.
func newDetector(dir *overlay.Directory, sim *eventsim.Simulator, rng *rand.Rand) *detector {
	d := &detector{
		dir:     dir,
		sim:     sim,
		rng:     rng,
		phase:   make(map[string]time.Duration),
		crashes: make(map[string]*crash),
	}
	for _, id := range dir.IDs() {
		d.observe(id)
	}
	// Repairs, leave-refills and joiners' table builds must not adopt a
	// crashed-but-unevicted user into an entry whose owner will never
	// monitor it.
	dir.SetLivenessOracle(d.up)
	return d
}

// observe enrols a member: it draws the ID's ping phase (once: a reused
// ID keeps its phase) and clears a previous holder's crash.
func (d *detector) observe(id ident.ID) {
	if _, ok := d.phase[id.Key()]; !ok {
		d.phase[id.Key()] = time.Duration(d.rng.Int63n(int64(pingInterval)))
	}
	delete(d.crashes, id.Key())
}

// up reports whether a user still answers: it never crashed, or its
// crash has not fired yet.
func (d *detector) up(id ident.ID) bool {
	c, ok := d.crashes[id.Key()]
	return !ok || !c.down
}

// kill crashes the user at the given virtual time, and at that time
// schedules a detection by every live owner that holds it.
func (d *detector) kill(failed ident.ID, at time.Duration) {
	c := &crash{id: failed, at: at}
	d.crashes[failed.Key()] = c
	d.sim.At(at, func(crashAt time.Duration) {
		c.down = true
		// The holders at the crash, not at the kill: under overlapping
		// failures a repair in between can move the record into tables
		// an earlier scan never saw.
		evicted := false
		for _, owner := range d.dir.Holders(failed) {
			if !d.up(owner) {
				continue // a dead owner pings nobody
			}
			d.sim.At(d.detectAt(owner, crashAt), func(time.Duration) {
				if !d.up(owner) {
					return // the detector itself crashed in the window
				}
				if !evicted {
					// The first notification evicts; an orphan reap may
					// have done so already.
					evicted = true
					_ = d.dir.Evict(failed)
				}
				d.dir.Repair(owner, failed, d.up)
			})
		}
	})
}

// detectAt is when owner declares dead a neighbor that crashed at
// crashAt: its first ping at or after the crash goes unanswered, `misses`
// of them in a row declare the failure, and the last waits out a timeout
// of two access RTTs.
func (d *detector) detectAt(owner ident.ID, crashAt time.Duration) time.Duration {
	rec, _ := d.dir.Record(owner)
	return nextTick(crashAt, d.phase[owner.Key()], pingInterval) +
		(misses-1)*pingInterval + 2*d.dir.Network().AccessRTT(rec.Host)
}

// nextTick returns the first phase-aligned ping time at or after t.
func nextTick(t, phase, interval time.Duration) time.Duration {
	if t <= phase {
		return phase
	}
	n := (t - phase + interval - 1) / interval
	return phase + n*interval
}
