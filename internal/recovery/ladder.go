// Package recovery implements limited unicast recovery of rekey
// messages, the fallback the paper relies on when multicast delivery
// fails or arrives too late (footnote 1: "the key server needs to send u
// the new group key via unicast if u cannot finish constructing its
// neighbor table before the end of the current rekey interval"; the
// mechanism follows Zhang-Lam-Lee's "group rekeying with limited unicast
// recovery" [31]).
//
// After a rekey multicast, any user that did not receive a copy of the
// interval's message — because a hop was lost, cutting off its whole
// delivery subtree — times out and requests recovery from the key
// server. The server answers each request with a unicast containing
// exactly the encryptions that user needs (the Lemma 3 selection), so
// recovery bandwidth is O(D) encryptions per lost user rather than a
// retransmission of the full message.
//
// The degradation ladder extends that into a three-rung delivery
// strategy for hostile networks:
//
//  1. multicast — the normal T-mesh distribution, possibly lossy;
//  2. unicast recovery — a user whose copy never arrived by the timeout
//     requests its Lemma 3 slice from the key server, retrying with
//     capped exponential backoff while those unicasts are lost too;
//  3. full resync — a user that exhausts its retry budget falls back to
//     a reliable (TCP-like) session in which the server reissues the
//     Lemma 3 encryption set, so delivery always terminates.
//
// Rungs 1-2 are the paper's design ([31], footnote 1); rung 3 is the
// bounded-time backstop that makes "every surviving member ends the
// interval holding the group key" an invariant rather than a likelihood.
package recovery

import (
	"fmt"
	"time"

	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
	"tmesh/internal/overlay"
	"tmesh/internal/split"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
)

// LadderConfig parameterises one rekey distribution over the ladder.
type LadderConfig struct {
	Dir *overlay.Directory
	// Sim is the shared event engine; the ladder schedules everything on
	// it and DistributeLadder returns before the events run.
	Sim *eventsim.Simulator
	// StartAt is the virtual time of the multicast send.
	StartAt time.Duration
	// DropHop simulates per-hop loss on the multicast.
	DropHop func(from, to vnet.HostID) bool
	// Alive routes the multicast around crashed users and exempts users
	// that crash mid-interval from recovery (nil means everyone).
	Alive func(ident.ID) bool
	// Policy is the ladder's schedule. The simulator learns that a
	// unicast is lost when it is sent, so a failed attempt n moves to
	// Next straight after Backoff(n) (no wait after the last one), and
	// its resync is the reliable one-shot: ResyncBudget is not consulted.
	Policy
	// DropUnicast simulates loss of one recovery unicast exchange
	// (attempt is 1-based). The resync rung is reliable and has no drop
	// hook by construction.
	DropUnicast func(user ident.ID, attempt int) bool
	// Obs is the optional telemetry registry: per-rung delivery
	// counters, retry counts, and dead-in-flight drops land there. The
	// counts are deterministic; nothing flows back into the result. The
	// rung-1 transport gets it too, so the hop callbacks that later run
	// on the shared simulator carry its pprof stage labels.
	Obs *obs.Registry
	// Trace, when non-nil, is the flight-recorder trace the whole
	// ladder joins: the rung-1 multicast emits its hop records into it,
	// and rungs 2-3 add unicast/resync records, so the
	// multicast→unicast→resync fallback reads as one causal chain.
	Trace *trace.Trace
}

// LadderResult accounts one distribution: the shared Outcome plus what
// only the simulator has. It is fully populated only after the shared
// simulator has drained past the last scheduled event. The resync rung
// is the reliable one-shot, so it adds to no attempt count.
type LadderResult struct {
	Outcome
	// Multicast is the rung-1 transport result.
	Multicast *tmesh.Result
	// Recovered lists users that needed rung >= 2, in ID order.
	Recovered []ident.ID
	// ServerUnits counts encryptions the server sent on rungs 2-3.
	ServerUnits int
}

// DistributeLadder schedules one rekey distribution over the ladder on
// the shared simulator and returns immediately; drive the simulator to
// populate the result, then call Finish on it.
func DistributeLadder(cfg LadderConfig, msg *keytree.Message) (*LadderResult, error) {
	switch {
	case cfg.Dir == nil || cfg.Sim == nil:
		return nil, fmt.Errorf("recovery: Dir and Sim are required")
	case msg == nil:
		return nil, fmt.Errorf("recovery: nil rekey message")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}

	out := &LadderResult{Outcome: Outcome{BackoffCap: cfg.RetryMax}}
	rungC := [...]*obs.Counter{
		ByMulticast: cfg.Obs.Counter("recovery_rung_multicast"),
		ByUnicast:   cfg.Obs.Counter("recovery_rung_unicast"),
		ByResync:    cfg.Obs.Counter("recovery_rung_resync"),
	}
	attemptsC := cfg.Obs.Counter("recovery_unicast_attempts")
	retriesC := cfg.Obs.Counter("recovery_retries")
	deadC := cfg.Obs.Counter("recovery_dead_in_flight")
	deliver := func(id ident.ID, rung Rung, at time.Duration) {
		out.Settle(id, rung, at)
		rungC[rung].Inc()
	}

	// Rung 1: the lossy multicast on the shared simulator, split per
	// encryption (Fig. 5).
	res, err := tmesh.Multicast(tmesh.Config[[]keycrypt.Encryption]{
		Dir:        cfg.Dir,
		DropHop:    cfg.DropHop,
		Alive:      cfg.Alive,
		Sim:        cfg.Sim,
		StartAt:    cfg.StartAt,
		SizeOf:     func(encs []keycrypt.Encryption) int { return len(encs) },
		Obs:        cfg.Obs,
		Trace:      cfg.Trace,
		TraceItems: split.EncIDs,
		SplitHop:   split.HopSplitter(),
	}, msg.Encryptions)
	if err != nil {
		return nil, err
	}
	out.Multicast = res

	net := cfg.Dir.Network()
	server := cfg.Dir.Server().Host()
	alive := func(id ident.ID) bool { return cfg.Alive == nil || cfg.Alive(id) }

	// Per-user recovery chain, attempt numbers 1-based. Each attempt is
	// a request/response exchange; a drop of either leg loses it whole,
	// and attempt n > 1 follows the expired wait Backoff(n-1).
	// The host lookup is re-done per attempt: a record that vanished
	// mid-chain (hop racing a crash or leave) drops the user to
	// DeadInFlight instead of unicasting to a stale host — or, read as
	// the zero HostID, to the server's own, and counting it delivered.
	var attempt func(id ident.ID, needed int, n int, at time.Duration)
	attempt = func(id ident.ID, needed int, n int, at time.Duration) {
		cfg.Sim.At(at, func(now time.Duration) {
			if n > 1 {
				out.Expired(cfg.Backoff(n - 1))
			}
			if !alive(id) {
				return // crashed while waiting: no longer a surviving member
			}
			rec, ok := cfg.Dir.Record(id)
			if !ok {
				out.Dead(id)
				deadC.Inc()
				return
			}
			out.Sent(n)
			attemptsC.Inc()
			if n > 1 {
				retriesC.Inc()
			}
			rtt := net.OneWay(rec.Host, server) + net.OneWay(server, rec.Host)
			if cfg.DropUnicast != nil && cfg.DropUnicast(id, n) {
				cfg.Trace.Unicast(id, n, now, -1, true, needed)
				next, _ := cfg.Next(Step{ByUnicast, n})
				if next.Rung == ByResync {
					// Rung 3: budget exhausted, reliable full resync.
					cfg.Sim.At(now+rtt, func(done time.Duration) {
						if !alive(id) {
							return
						}
						out.ServerUnits += needed
						deliver(id, ByResync, done)
						cfg.Trace.Resync(id, now, done, needed)
					})
					return
				}
				attempt(id, needed, next.Attempt, now+cfg.Backoff(n))
				return
			}
			out.ServerUnits += needed
			cfg.Sim.At(now+rtt, func(done time.Duration) {
				if !alive(id) {
					return
				}
				deliver(id, ByUnicast, done)
				cfg.Trace.Unicast(id, n, now, done, false, needed)
			})
		})
	}

	// At the timeout, sweep users in ID order and start recovery chains
	// for everyone whose copy never arrived.
	cfg.Sim.At(cfg.StartAt+cfg.Timeout, func(now time.Duration) {
		for _, id := range cfg.Dir.IDs() {
			if !alive(id) {
				continue
			}
			needed := NeededBy(msg, id)
			if len(needed) == 0 {
				continue // the interval did not touch this user's path
			}
			st := res.Users[id]
			if st != nil && st.Received > 0 {
				deliver(id, ByMulticast, st.Delay)
				continue
			}
			out.Recovered = append(out.Recovered, id)
			attempt(id, len(needed), 1, now)
		}
	})
	return out, nil
}

// NeededBy returns the Lemma 3 slice of a rekey message for one user —
// the encryptions the user must decrypt to stay current. Exported for
// auditors that have to decide whether a silent user was actually owed
// anything this interval.
func NeededBy(msg *keytree.Message, u ident.ID) []keycrypt.Encryption {
	var out []keycrypt.Encryption
	for _, e := range msg.Encryptions {
		if e.NeededBy(u) {
			out = append(out, e)
		}
	}
	return out
}
