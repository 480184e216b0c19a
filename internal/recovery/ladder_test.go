package recovery

import (
	"math/rand"
	"testing"
	"time"

	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

func TestLadderValidation(t *testing.T) {
	dir, _, msg, _ := buildWorld(t, 10, 1)
	sim := eventsim.New()
	base := LadderConfig{
		Dir: dir, Sim: sim,
		Policy: Policy{Timeout: time.Second, RetryBase: 100 * time.Millisecond, RetryMax: time.Second, RetryBudget: 3},
	}
	bad := []func(c *LadderConfig){
		func(c *LadderConfig) { c.Dir = nil },
		func(c *LadderConfig) { c.Sim = nil },
		func(c *LadderConfig) { c.Timeout = 0 },
		func(c *LadderConfig) { c.RetryBudget = 0 },
		func(c *LadderConfig) { c.RetryBase = 0 },
		func(c *LadderConfig) { c.RetryMax = 50 * time.Millisecond },
	}
	for i, mutate := range bad {
		c := base
		mutate(&c)
		if _, err := DistributeLadder(c, msg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if _, err := DistributeLadder(base, nil); err == nil {
		t.Error("nil message should fail")
	}
}

func TestLadderAllByMulticastWhenLossless(t *testing.T) {
	dir, _, msg, survivors := buildWorld(t, 30, 3)
	sim := eventsim.New()
	res, err := DistributeLadder(LadderConfig{
		Dir: dir, Sim: sim,
		Policy: Policy{Timeout: time.Second, RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond, RetryBudget: 3},
	}, msg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	res.Finish()
	if len(res.Recovered) != 0 || len(res.Resynced) != 0 || res.UnicastAttempts != 0 {
		t.Errorf("lossless run used recovery: %+v", res)
	}
	for _, id := range survivors {
		if len(NeededBy(msg, id)) == 0 {
			continue
		}
		if rung, ok := res.RungOf[id.Key()]; !ok || rung != ByMulticast {
			t.Errorf("user %v rung = %v, %v; want multicast", id, rung, ok)
		}
	}
}

// TestLadderEngagesUnderLoss drops every multicast hop into one victim
// and the victim's first two recovery unicasts: the key must arrive by
// unicast on the third attempt, after two backoff waits.
func TestLadderEngagesUnderLoss(t *testing.T) {
	dir, _, msg, survivors := buildWorld(t, 30, 5)
	var victim ident.ID
	for _, id := range survivors {
		if len(NeededBy(msg, id)) > 0 {
			victim = id
			break
		}
	}
	vrec, _ := dir.Record(victim)
	sim := eventsim.New()
	res, err := DistributeLadder(LadderConfig{
		Dir: dir, Sim: sim,
		Policy:  Policy{Timeout: time.Second, RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond, RetryBudget: 4},
		DropHop: func(from, to vnet.HostID) bool { return to == vrec.Host },
		DropUnicast: func(u ident.ID, attempt int) bool {
			return u.Equal(victim) && attempt <= 2
		},
	}, msg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	res.Finish()
	if len(res.Recovered) != 1 || !res.Recovered[0].Equal(victim) {
		t.Fatalf("Recovered = %v, want [%v]", res.Recovered, victim)
	}
	if res.UnicastAttempts != 3 || res.Retries != 2 {
		t.Errorf("attempts = %d retries = %d, want 3 and 2", res.UnicastAttempts, res.Retries)
	}
	if res.MaxBackoff != 100*time.Millisecond { // 50ms << 1 on the second failure
		t.Errorf("MaxBackoff = %v, want 100ms", res.MaxBackoff)
	}
	if rung := res.RungOf[victim.Key()]; rung != ByUnicast {
		t.Errorf("victim rung = %v, want unicast", rung)
	}
	if len(res.Resynced) != 0 {
		t.Errorf("unexpected resyncs: %v", res.Resynced)
	}
	// Every other surviving member got the key by multicast.
	for _, id := range survivors {
		if id.Equal(victim) || len(NeededBy(msg, id)) == 0 {
			continue
		}
		if res.RungOf[id.Key()] != ByMulticast {
			t.Errorf("user %v rung = %v, want multicast", id, res.RungOf[id.Key()])
		}
	}
}

// TestLadderFallsBackToResync exhausts the retry budget: delivery must
// still terminate, via the reliable resync rung.
func TestLadderFallsBackToResync(t *testing.T) {
	dir, _, msg, survivors := buildWorld(t, 30, 7)
	var victim ident.ID
	for _, id := range survivors {
		if len(NeededBy(msg, id)) > 0 {
			victim = id
			break
		}
	}
	vrec, _ := dir.Record(victim)
	sim := eventsim.New()
	res, err := DistributeLadder(LadderConfig{
		Dir: dir, Sim: sim,
		Policy:      Policy{Timeout: time.Second, RetryBase: 50 * time.Millisecond, RetryMax: 200 * time.Millisecond, RetryBudget: 3},
		DropHop:     func(from, to vnet.HostID) bool { return to == vrec.Host },
		DropUnicast: func(u ident.ID, attempt int) bool { return u.Equal(victim) },
	}, msg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	res.Finish()
	if len(res.Resynced) != 1 || !res.Resynced[0].Equal(victim) {
		t.Fatalf("Resynced = %v, want [%v]", res.Resynced, victim)
	}
	// Users downstream of the victim also lost their multicast copies and
	// recovered in one attempt each, so only bound the total from below.
	if res.UnicastAttempts < 3 {
		t.Errorf("UnicastAttempts = %d, want >= the victim's full budget of 3", res.UnicastAttempts)
	}
	if res.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2", res.Retries)
	}
	if rung := res.RungOf[victim.Key()]; rung != ByResync {
		t.Errorf("victim rung = %v, want resync", rung)
	}
	if at, ok := res.DeliveredAt[victim.Key()]; !ok || at <= time.Second {
		t.Errorf("victim DeliveredAt = %v, %v; want after the timeout", at, ok)
	}
}

// TestLadderDeterministic: two identical runs produce identical results.
func TestLadderDeterministic(t *testing.T) {
	run := func() *LadderResult {
		dir, _, msg, _ := buildWorld(t, 30, 9)
		rng := rand.New(rand.NewSource(42))
		drops := make(map[vnet.HostID]bool)
		for h := 1; h <= 30; h++ {
			if rng.Intn(5) == 0 {
				drops[vnet.HostID(h)] = true
			}
		}
		sim := eventsim.New()
		res, err := DistributeLadder(LadderConfig{
			Dir: dir, Sim: sim,
			Policy:      Policy{Timeout: time.Second, RetryBase: 50 * time.Millisecond, RetryMax: 500 * time.Millisecond, RetryBudget: 3},
			DropHop:     func(from, to vnet.HostID) bool { return drops[to] },
			DropUnicast: func(u ident.ID, attempt int) bool { return attempt == 1 },
		}, msg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		res.Finish()
		return res
	}
	a, b := run(), run()
	if len(a.Recovered) != len(b.Recovered) || a.UnicastAttempts != b.UnicastAttempts ||
		a.Retries != b.Retries || a.ServerUnits != b.ServerUnits || a.MaxBackoff != b.MaxBackoff {
		t.Errorf("same-seed runs differ: %+v vs %+v", a, b)
	}
	for k, r := range a.RungOf {
		if b.RungOf[k] != r || a.DeliveredAt[k] != b.DeliveredAt[k] {
			t.Errorf("user %s differs across identical runs", k)
		}
	}
}
