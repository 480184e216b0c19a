package recovery_test

import (
	"testing"
	"time"

	"tmesh/internal/chaos"
	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/obs"
	"tmesh/internal/recovery"
	"tmesh/internal/vnet"
)

// TestLadderBooksDeadInFlight loses every multicast hop into one victim
// and removes its directory record before its first recovery unicast:
// the ladder books it dead in flight, sends it nothing and settles it
// on no rung, while the members cut off below it recover by unicast.
// The ladder auditor accepts the record: the victim is no longer a
// member, so nobody reachable was given up on.
func TestLadderBooksDeadInFlight(t *testing.T) {
	dir, _, msg, survivors := recovery.BuildWorld(t, 30, 5)
	var owed []ident.ID
	for _, id := range survivors {
		if len(recovery.NeededBy(msg, id)) > 0 {
			owed = append(owed, id)
		}
	}
	victim := owed[0]
	vrec, _ := dir.Record(victim)
	sim, reg := eventsim.New(), obs.New()
	policy := recovery.Policy{Timeout: time.Second, RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond, RetryBudget: 3}
	res, err := recovery.DistributeLadder(recovery.LadderConfig{
		Dir: dir, Sim: sim, Policy: policy, Obs: reg,
		DropHop: func(_, to vnet.HostID) bool { return to == vrec.Host },
	}, msg)
	if err != nil {
		t.Fatal(err)
	}
	// The timeout sweep was queued first; at that instant it queues the
	// victim's first attempt behind this leave.
	sim.At(policy.Timeout, func(time.Duration) {
		if err := dir.Leave(victim); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	res.Finish()

	if len(res.DeadInFlight) != 1 || !res.DeadInFlight[0].Equal(victim) {
		t.Fatalf("DeadInFlight = %v, want [%v]", res.DeadInFlight, victim)
	}
	if rung, ok := res.RungOf[victim]; ok {
		t.Errorf("dead victim settled on rung %v", rung)
	}
	if n := reg.Counter("recovery_dead_in_flight").Value(); n != 1 {
		t.Errorf("recovery_dead_in_flight = %d, want 1", n)
	}
	if got, want := res.UnicastAttempts, len(res.Recovered)-1; got != want || res.Retries != 0 {
		t.Errorf("%d unicast attempts, %d retries; want one each for the %d recovered members besides the victim",
			got, res.Retries, want)
	}
	verdicts, _ := chaos.Audit(&chaos.Evidence{Dir: dir, Ladder: &res.Outcome, Owed: owed}, nil)
	ran := false
	for _, v := range verdicts {
		if v.Name == "ladder" {
			ran = true
			if line := v.Line(); line != "" {
				t.Error(line)
			}
		}
	}
	if !ran {
		t.Error("chaos.Audit ran no ladder auditor")
	}
}
