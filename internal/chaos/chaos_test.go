package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/metrics"
	"tmesh/internal/recovery"
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
		t.Fatalf("%d invariant violations:\n%s\nreproducer:\n%s", n, rep, rep.Reproducer())
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

// TestSoakDelaysAreDelays: the data and key percentiles measure each
// copy from its own send, so nothing in them reaches one interval — an
// absolute virtual arrival time would grow with the run.
func TestSoakDelaysAreDelays(t *testing.T) {
	rep := runSoak(t, smallConfig(1))
	for what, s := range map[string]metrics.Summary{"data": rep.DataDelayMS, "key": rep.KeyDelayMS} {
		if s.N == 0 || s.Max <= 0 || s.Max >= float64(intervalLength/time.Millisecond) {
			t.Errorf("%s delay n=%d max=%.3f ms, want 0 < max < one %v interval", what, s.N, s.Max, intervalLength)
		}
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
		t.Fatalf("%d invariant violations under loss:\n%s\nreproducer:\n%s", n, rep, rep.Reproducer())
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

// TestSoakRekeyMessagesAreRealWraps: the soak distributes the key
// server's real messages. After each step, while the tree still holds
// the interval's keys, every encryption of the message the ladder
// carried opens under the key the tree holds for its ID, to the key the
// tree holds for its KeyID at the stated version.
func TestSoakRekeyMessagesAreRealWraps(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Intervals = 6
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range cfg.Intervals {
		if err := e.step(e, i); err != nil {
			t.Fatal(err)
		}
		msg := e.cur.msg
		if msg == nil {
			continue // a cost-0 interval distributes nothing
		}
		for _, enc := range msg.Encryptions {
			var kek keycrypt.Key
			var ok bool
			if enc.ID.Len() == soakParams.Digits {
				kek, ok = e.tree.IndividualKey(ident.ID(enc.ID))
			} else {
				kek, _, ok = e.tree.KeyOf(enc.ID)
			}
			want, version, found := e.tree.KeyOf(enc.KeyID)
			if !ok || !found || version != enc.KeyVersion {
				t.Fatalf("encryption %v→%v v%d names keys the tree does not hold", enc.ID, enc.KeyID, enc.KeyVersion)
			}
			if got, err := keycrypt.Unwrap(kek, enc); len(enc.Ciphertext) == 0 || err != nil || !got.Equal(want) {
				t.Fatalf("encryption %v→%v (%d ciphertext bytes) does not unwrap to the tree's key: %v",
					enc.ID, enc.KeyID, len(enc.Ciphertext), err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no rekey message was checked")
	}
	t.Logf("checked %d encryptions", checked)
}

// skipOne is the engine with one multicast-keyed survivor erased from
// everything the ladder booked, in the first flush that keyed one, as if
// the ladder's sweep had never picked the member up.
type skipOne struct {
	*Engine
	victim  ident.ID
	skipped int // 0-based interval of the erasure, -1 before it
}

func (s *skipOne) Flush(boundary time.Duration) (int, error) {
	cost, err := s.Engine.Flush(boundary)
	lr := s.cur.ladder
	if err != nil || s.skipped >= 0 || lr == nil {
		return cost, err
	}
	for _, id := range s.cur.rekeyLive {
		if rung, ok := lr.RungOf[id]; ok && rung == recovery.ByMulticast && s.alive(id) {
			delete(lr.RungOf, id)
			delete(lr.DeliveredAt, id)
			s.victim, s.skipped = id, s.cur.stats.Index-1
			break
		}
	}
	return cost, nil
}

// TestSoakCoverageCatchesASkippedMember: the members the coverage and
// ladder auditors hold the ladder to come from the engine, not from the
// ladder's own booking. A wrapping Plane erases one multicast-keyed
// survivor from the ladder's booking before the audit; both auditors
// must name it.
func TestSoakCoverageCatchesASkippedMember(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Intervals = 3
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	skip := &skipOne{Engine: e, skipped: -1}
	for i := range cfg.Intervals {
		if err := e.step(skip, i); err != nil {
			t.Fatal(err)
		}
	}
	if skip.skipped < 0 {
		t.Fatal("no interval distributed a rekey to skip a member of")
	}
	got := strings.Join(e.rep.Intervals[skip.skipped].Violations, "\n")
	for _, want := range []string{
		fmt.Sprintf("surviving member %v never got its key slice", skip.victim),
		fmt.Sprintf("member %v was owed keys but no rung delivered them", skip.victim),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("interval %d violations %q lack %q", skip.skipped+1, got, want)
		}
	}
}

// TestSoakDrainNamesTheInterval: an event still queued when an
// interval's boundary has run breaks the drain invariant, once, in the
// interval whose boundary it outlived.
func TestSoakDrainNamesTheInterval(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Intervals = 3
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.sim.At(intervalLength+time.Millisecond, func(time.Duration) {})
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var drains []string
	for _, v := range rep.FinalViolations {
		if strings.HasPrefix(v, "drain:") {
			drains = append(drains, v)
		}
	}
	if len(drains) != 1 || !strings.HasPrefix(drains[0], "drain: interval 1: ") {
		t.Errorf("drain violations %q, want one naming interval 1", drains)
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
