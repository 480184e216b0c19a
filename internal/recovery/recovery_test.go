package recovery

import (
	"math/rand"
	"testing"
	"time"

	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

var tp = ident.Params{Digits: 3, Base: 8}

func buildWorld(t *testing.T, n int, seed int64) (*overlay.Directory, *keytree.Tree, *keytree.Message, []ident.ID) {
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
	dir, err := overlay.NewDirectory(tp, 2, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := keytree.New(tp, []byte("recovery"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	used := map[ident.ID]bool{}
	var ids []ident.ID
	for len(ids) < n {
		id, err := ident.FromInt(tp, rng.Intn(tp.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		if used[id] {
			continue
		}
		used[id] = true
		if err := dir.Join(overlay.Record{Host: vnet.HostID(len(ids) + 1), ID: id}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := tree.Batch(ids, nil); err != nil {
		t.Fatal(err)
	}
	// One churn interval to produce a message.
	leavers := ids[:3]
	for _, id := range leavers {
		if err := dir.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := tree.Batch(nil, leavers)
	if err != nil {
		t.Fatal(err)
	}
	return dir, tree, msg, ids[3:]
}

// oneRung runs the ladder the way the loss sweep does — private
// simulator, a single unicast attempt, lossless unicasts — which is the
// paper's plain limited unicast recovery: everyone the multicast missed
// is served by exactly one server unicast.
func oneRung(cfg LadderConfig, msg *keytree.Message) (*LadderResult, error) {
	cfg.Sim = eventsim.New()
	cfg.RetryBase, cfg.RetryMax, cfg.RetryBudget = time.Second, time.Second, 1
	res, err := DistributeLadder(cfg, msg)
	if err != nil {
		return nil, err
	}
	cfg.Sim.Run()
	res.Finish()
	return res, nil
}

func TestValidation(t *testing.T) {
	dir, _, msg, _ := buildWorld(t, 10, 1)
	if _, err := oneRung(LadderConfig{Dir: nil, Policy: Policy{Timeout: time.Second}}, msg); err == nil {
		t.Error("nil dir should fail")
	}
	if _, err := oneRung(LadderConfig{Dir: dir, Policy: Policy{Timeout: time.Second}}, nil); err == nil {
		t.Error("nil message should fail")
	}
	if _, err := oneRung(LadderConfig{Dir: dir}, msg); err == nil {
		t.Error("zero timeout should fail")
	}
}

func TestNoLossNoRecovery(t *testing.T) {
	dir, _, msg, live := buildWorld(t, 30, 2)
	res, err := oneRung(LadderConfig{Dir: dir, Policy: Policy{Timeout: time.Second}}, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recovered) != 0 || res.ServerUnits != 0 {
		t.Errorf("lossless run needed recovery: %+v", res)
	}
	// Everyone got their needed encryptions via multicast.
	for _, id := range live {
		if st := res.Multicast.Users[id]; st == nil || st.UnitsReceived == 0 {
			t.Errorf("user %v received nothing", id)
		}
	}
}

// TestLossyRecoveryCompleteness: with heavy deterministic loss, every
// user still ends with its needed encryptions — by multicast or by
// server unicast — and the recovered set is exactly the cut-off users.
func TestLossyRecoveryCompleteness(t *testing.T) {
	dir, _, msg, live := buildWorld(t, 40, 3)
	rng := rand.New(rand.NewSource(99))
	const timeout = 2 * time.Second
	res, err := oneRung(LadderConfig{
		Dir:     dir,
		Policy:  Policy{Timeout: timeout},
		DropHop: func(from, to vnet.HostID) bool { return rng.Float64() < 0.25 },
	}, msg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Multicast.Dropped == 0 {
		t.Fatal("loss model did not fire; test is vacuous")
	}
	if len(res.Recovered) == 0 {
		t.Fatal("no one needed recovery despite 25% loss")
	}
	recovered := map[ident.ID]bool{}
	for _, id := range res.Recovered {
		recovered[id] = true
	}
	for _, id := range live {
		if len(NeededBy(msg, id)) == 0 {
			continue
		}
		rung, keyed := res.RungOf[id]
		if !keyed {
			t.Errorf("user %v ended with nothing", id)
			continue
		}
		st := res.Multicast.Users[id]
		cutOff := st == nil || st.Received == 0
		if cutOff != recovered[id] || cutOff != (rung == ByUnicast) {
			t.Errorf("user %v: cut off %v, recovered %v, rung %v", id, cutOff, recovered[id], rung)
		}
	}
	// Recovery bandwidth is tiny per user: O(D) encryptions, not the
	// whole message.
	if res.ServerUnits >= len(res.Recovered)*msg.Cost() {
		t.Errorf("recovery sent %d units for %d users — looks like full retransmission",
			res.ServerUnits, len(res.Recovered))
	}
	perUser := float64(res.ServerUnits) / float64(len(res.Recovered))
	if perUser > float64(tp.Digits+1) {
		t.Errorf("avg %.1f recovery encryptions per user exceeds path length %d", perUser, tp.Digits+1)
	}
	if res.UnicastAttempts != len(res.Recovered) || len(res.Resynced) != 0 {
		t.Errorf("%d unicasts, %d resyncs for %d recovered users; want one unicast each",
			res.UnicastAttempts, len(res.Resynced), len(res.Recovered))
	}
	for _, id := range res.Recovered {
		if at := res.DeliveredAt[id]; at <= timeout {
			t.Errorf("user %v recovered at %v, inside the %v timeout", id, at, timeout)
		}
	}
}
