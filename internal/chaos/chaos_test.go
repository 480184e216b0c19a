package chaos

import (
	"testing"
	"time"

	"tmesh/internal/vnet"
)

func runSoak(t *testing.T, cfg Config) *Report {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSoakDefaultConfigGreen is the acceptance soak: >= 20 intervals,
// >= 10k events, every fault class enabled, all auditors green.
func TestSoakDefaultConfigGreen(t *testing.T) {
	rep := runSoak(t, DefaultConfig(1))
	if n := rep.TotalViolations(); n != 0 {
		t.Fatalf("%d invariant violations:\n%s", n, rep.String())
	}
	if len(rep.Intervals) < 20 {
		t.Errorf("ran %d intervals, want >= 20", len(rep.Intervals))
	}
	if rep.TotalEvents < 10000 {
		t.Errorf("processed %d events, want >= 10000", rep.TotalEvents)
	}
	var joins, leaves, crashes, kills, bursts, partitions, spikes int
	for i := range rep.Intervals {
		s := &rep.Intervals[i]
		joins += s.Joins
		leaves += s.Leaves
		crashes += s.Crashes
		kills += s.LeaderKills
		if s.Burst {
			bursts++
		}
		if s.PartitionDomain >= 0 {
			partitions++
		}
		if s.Spike {
			spikes++
		}
	}
	if joins == 0 || leaves == 0 || crashes == 0 {
		t.Errorf("churn did not exercise all classes: joins=%d leaves=%d crashes=%d", joins, leaves, crashes)
	}
	if kills == 0 {
		t.Errorf("no cluster-leader kills in %d crashes", crashes)
	}
	if bursts == 0 || partitions == 0 || spikes == 0 {
		t.Errorf("fault classes unexercised: bursts=%d partitions=%d spikes=%d", bursts, partitions, spikes)
	}
}

// TestSoakByteIdenticalReports: determinism is a hard invariant — two
// engines built from the same configuration must replay the session
// byte-identically, report included.
func TestSoakByteIdenticalReports(t *testing.T) {
	a := runSoak(t, DefaultConfig(7))
	b := runSoak(t, DefaultConfig(7))
	if a.String() != b.String() {
		t.Errorf("same-seed soaks diverged:\n--- run A ---\n%s\n--- run B ---\n%s", a.String(), b.String())
	}
}

// TestSoakSeedsDisagree guards the determinism test against a trivially
// constant report: different seeds must produce different sessions.
func TestSoakSeedsDisagree(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.Intervals = 5
	other := cfg
	other.Seed = 12
	if runSoak(t, cfg).String() == runSoak(t, other).String() {
		t.Error("seeds 11 and 12 produced identical reports; the RNG plumbing is broken")
	}
}

// TestSoakLossyLadderEngages runs the acceptance loss scenario: 20%
// per-hop loss must push keys down the ladder — retries with backoff
// and at least one full resync — while every surviving member still
// ends each interval holding the current group key (zero coverage
// violations).
func TestSoakLossyLadderEngages(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.HopLoss = 0.2
	rep := runSoak(t, cfg)
	if n := rep.TotalViolations(); n != 0 {
		t.Fatalf("%d invariant violations under loss:\n%s", n, rep.String())
	}
	var unicast, resync, retries int
	var maxBackoff time.Duration
	for i := range rep.Intervals {
		s := &rep.Intervals[i]
		unicast += s.KeyByUnicast
		resync += s.KeyByResync
		retries += s.Retries
		if s.MaxBackoff > maxBackoff {
			maxBackoff = s.MaxBackoff
		}
	}
	if unicast == 0 {
		t.Error("no key delivered by unicast recovery under 20% hop loss")
	}
	if retries == 0 || maxBackoff == 0 {
		t.Errorf("backoff never engaged: retries=%d maxBackoff=%v", retries, maxBackoff)
	}
	if resync == 0 {
		t.Error("no full resync under 20% hop loss; the third rung never engaged")
	}
}

// TestSoakConfigValidation rejects settings the soak cannot run.
func TestSoakConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Intervals = 0 },
		func(c *Config) { c.HopLoss = 1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(1)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config should have been rejected", i)
		}
	}
}

// TestSoakScheduleFits checks that the fixed schedule leaves room for its
// own failure machinery, so audits never observe mid-repair state: the
// worst-case detection of a crash at the end of the churn window
// completes before the boundary, and the ladder's worst chain (every
// wait of the policy, plus a second for the delivery legs: the last
// unicast's and the resync's round trips) fits between the rekey point
// and the boundary.
func TestSoakScheduleFits(t *testing.T) {
	// A detection lands at most a whole ping interval of phase, then
	// misses-1 further intervals, then the two-access-RTT timeout after
	// the crash (detector.detectAt).
	worstDetect := misses*pingInterval + 2*2*vnet.SoakGTITMConfig().AccessDelayMax
	if end := frac(intervalLength, phaseChurnEnd) + worstDetect; end >= intervalLength {
		t.Errorf("detection of a crash at the end of the churn window ends at %v, past the %v boundary", end, intervalLength)
	}
	ladderWorst := soakPolicy.Worst() + time.Second
	if end := frac(intervalLength, phaseRekey) + ladderWorst; end >= intervalLength {
		t.Errorf("the ladder's worst chain ends at %v, past the %v boundary", end, intervalLength)
	}
}
