package grouphost

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"tmesh/internal/chaos"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/vnet"
	"tmesh/internal/workload"
)

// testGroups is a mixed tenancy: two NetPlane groups (one with cluster
// rekeying) exercising the full protocol on the shared topology, and
// two KeyPlane groups (one a flash crowd, one a mass join+leave)
// exercising the shared fan-out at scale.
func testGroups(short bool) []GroupSpec {
	crowd, mass := 3000, 1500
	if short {
		crowd, mass = 400, 200
	}
	return []GroupSpec{
		{
			// WarmUp deliberately misaligned with Interval so a victim
			// can join and leave between the same two boundaries — the
			// pair must cancel out of the batch, not abort the soak.
			Name: "tree",
			Workload: workload.Config{
				InitialJoins: 20, WarmUp: 450 * time.Second,
				ChurnJoins: 6, ChurnLeaves: 6, Interval: 100 * time.Second,
				Seed: 7,
			},
		},
		{
			Name:            "clus",
			ClusterRekeying: true,
			Workload: workload.Config{
				InitialJoins: 24, WarmUp: 400 * time.Second,
				ChurnJoins: 5, ChurnLeaves: 8, Interval: 150 * time.Second,
				ChurnIntervals: 2, Seed: 11,
			},
		},
		{
			Name:     "flash",
			Profile:  KeyPlane,
			Workload: workload.FlashCrowd(100, crowd, 13),
		},
		{
			Name:     "mass",
			Profile:  KeyPlane,
			Workload: workload.MassJoinLeave(mass, mass/3, mass/3, 2, 17),
		},
	}
}

// runHost runs the test tenancy at fan-out width `width`: the width is
// derived from GOMAXPROCS, so that is what the helper sets (and
// restores).
func runHost(t *testing.T, width int, orderSeed int64, stagger time.Duration) *Report {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	rep, err := Run(Config{
		Groups:    testGroups(testing.Short()),
		Seed:      42,
		Stagger:   stagger,
		OrderSeed: orderSeed,
		Obs:       obs.New(),
	})
	if err != nil {
		t.Fatalf("Run(width=%d order=%d stagger=%v): %v", width, orderSeed, stagger, err)
	}
	return rep
}

// TestMultiGroupDeterminism is the tenancy determinism contract: G
// groups sharing the process-wide fan-out produce byte-identical
// reports (per-group intervals, costs, and final-keyring digests
// included) at every width from inline (GOMAXPROCS 1) up, under every
// equal-instant processing order, and at every stagger. Run under -race
// this also proves the shared helpers keep the disjoint-write
// discipline across tenants.
func TestMultiGroupDeterminism(t *testing.T) {
	base := runHost(t, 1, 0, 0)
	want := base.String()
	if base.Violations() != 0 {
		t.Fatalf("baseline run has violations:\n%s", want)
	}
	if base.PoolWidth != 1 {
		t.Errorf("inline run reports width %d, want 1", base.PoolWidth)
	}

	for _, width := range []int{2, 4, 8} {
		if got := runHost(t, width, 0, 0).String(); got != want {
			t.Errorf("width %d changed the report\nwant:\n%s\ngot:\n%s", width, want, got)
		}
	}
	for _, order := range []int64{1, 99} {
		if got := runHost(t, 4, order, 0).String(); got != want {
			t.Errorf("order seed %d changed the report\nwant:\n%s\ngot:\n%s", order, want, got)
		}
	}
	for _, stagger := range []time.Duration{time.Second, 37 * time.Second} {
		if got := runHost(t, 4, 0, stagger).String(); got != want {
			t.Errorf("stagger %v changed the report\nwant:\n%s\ngot:\n%s", stagger, want, got)
		}
	}
}

// TestAuditorsRunPerGroup checks the audit bookkeeping: five checks per
// interval per group, zero violations on a healthy run, and the report
// carrying every group's profile and churn totals.
func TestAuditorsRunPerGroup(t *testing.T) {
	rep := runHost(t, 4, 0, 10*time.Second)
	if len(rep.Groups) != 4 {
		t.Fatalf("got %d group reports, want 4", len(rep.Groups))
	}
	for _, g := range rep.Groups {
		if g.Intervals == 0 {
			t.Errorf("group %s processed no intervals", g.Name)
		}
		if want := g.Intervals * len(chaos.AuditorNames()); g.Audits != want {
			t.Errorf("group %s: %d audits over %d intervals, want %d",
				g.Name, g.Audits, g.Intervals, want)
		}
		if len(g.Violations) != 0 {
			t.Errorf("group %s violations: %v", g.Name, g.Violations)
		}
		if g.Joins == 0 || g.KeyringDigest == 0 {
			t.Errorf("group %s report looks empty: %+v", g.Name, g)
		}
	}
	if got := rep.Groups[1].Profile; got != "net" {
		t.Errorf("clus profile = %q, want net", got)
	}
	if got := rep.Groups[2].Profile; got != "key" {
		t.Errorf("flash profile = %q, want key", got)
	}
	if !strings.Contains(rep.String(), "flash[key]") {
		t.Errorf("report missing flash group line:\n%s", rep.String())
	}
}

// TestNetTenantLadderRecord: the NetPlane tenant's ladder record
// settles exactly the members that hold a keyring, each of which holds
// its keyring's group key, so a member left without its keyring and its
// group key fails both the coverage and the ladder check.
func TestNetTenantLadderRecord(t *testing.T) {
	nt := keyedNetTenant(t, 6)
	audit := func(ev *chaos.Evidence) map[string]string {
		verdicts, _ := chaos.Audit(ev, nil)
		failed := make(map[string]string)
		for _, v := range verdicts {
			if line := v.Line(); line != "" {
				failed[v.Name] = line
			}
		}
		return failed
	}
	ev := nt.Evidence()
	for _, id := range ev.Owed {
		_, settled := ev.Ladder.RungOf[id]
		kr, keyed := nt.g.KeyringOf(id)
		if settled != keyed {
			t.Fatalf("holder %v: settled %v, holds a keyring %v", id, settled, keyed)
		}
		want, _ := kr.GroupKey()
		if got, ok := nt.g.GroupKeyOf(id); !ok || !got.Equal(want) {
			t.Fatalf("holder %v: GroupKeyOf differs from its keyring's group key", id)
		}
	}
	if failed := audit(ev); len(failed) != 0 {
		t.Fatalf("healthy group failed: %v", failed)
	}

	ev = nt.Evidence()
	victim := ev.Owed[2]
	delete(ev.Ladder.RungOf, victim)
	delete(ev.Ladder.DeliveredAt, victim)
	ev.GroupKeyOf = func(id ident.ID) (keycrypt.Key, bool) {
		if id == victim {
			return keycrypt.Key{}, false
		}
		return nt.g.GroupKeyOf(id)
	}
	failed := audit(ev)
	for name, want := range map[string]string{"coverage": "never got its key slice", "ladder": "no rung delivered"} {
		if !strings.Contains(failed[name], want) {
			t.Errorf("auditor %s reported %q, want a violation mentioning %q", name, failed[name], want)
		}
	}
	if len(failed) != 2 {
		t.Errorf("failed auditors %v, want coverage and ladder only", failed)
	}
}

// keyedNetTenant joins members to a fresh NetPlane tenant and runs the
// interval that keys them.
func keyedNetTenant(t *testing.T, members int) *netTenant {
	t.Helper()
	net, err := vnet.NewGTITM(vnet.SoakGTITMConfig(), 1+members, 1)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := newNetTenant("ladder", GroupSpec{}, net, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < members; h++ {
		if err := tn.Apply(workload.Event{Kind: workload.Join, Host: h}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tn.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	return tn.(*netTenant)
}

// TestNetTenantHopsCheckedAgainstMessage: the NetPlane tenant hands the
// auditors the message it split, so a hop short of one encryption its
// subtree needs fails delivery.
func TestNetTenantHopsCheckedAgainstMessage(t *testing.T) {
	nt := keyedNetTenant(t, 6)
	ev := nt.Evidence()
	if len(ev.Hops) == 0 || len(ev.Message) == 0 {
		t.Fatalf("evidence has %d hops and %d message encryptions", len(ev.Hops), len(ev.Message))
	}
	d := &nt.lastRep.Deliveries[0]
	d.Encryptions = d.Encryptions[1:] // a fresh slice header: shared slices stay intact
	verdicts, _ := chaos.Audit(nt.Evidence(), nil)
	for _, v := range verdicts {
		if want := v.Name == "delivery"; want != strings.Contains(v.Line(), "lacks encryption") {
			t.Errorf("auditor %s reported %q", v.Name, v.Line())
		}
	}
}

// TestFlashCrowdInterval drives the ISSUE's flash-crowd acceptance
// shape at test scale: all crowd joins land inside one rekey interval,
// the interval completes, every keyring spot-checks clean, and the
// final membership is base+crowd.
func TestFlashCrowdInterval(t *testing.T) {
	base, crowd := 200, 20000
	if testing.Short() {
		crowd = 2000
	}
	rep, err := Run(Config{
		Groups: []GroupSpec{{
			Name:     "ppv",
			Profile:  KeyPlane,
			Workload: workload.FlashCrowd(base, crowd, 23),
		}},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Groups[0]
	if g.Joins != base+crowd {
		t.Errorf("joins = %d, want %d", g.Joins, base+crowd)
	}
	if g.FinalMembers != base+crowd {
		t.Errorf("final members = %d, want %d", g.FinalMembers, base+crowd)
	}
	if len(g.Violations) != 0 {
		t.Errorf("violations: %v", g.Violations)
	}
	// The crowd lands in the post-warm-up interval: its rekey must
	// dominate the total cost.
	if g.MaxCost == 0 || int64(g.MaxCost) < g.TotalCost/2 {
		t.Errorf("flash interval cost %d does not dominate total %d", g.MaxCost, g.TotalCost)
	}
}

// TestConfigValidation covers the fail-fast paths.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config did not fail")
	}
	if _, err := Run(Config{Groups: []GroupSpec{{}}}); err == nil {
		t.Error("zero workload interval did not fail")
	}
	if _, err := Run(Config{
		Groups:  []GroupSpec{{Workload: workload.Paper13(1)}},
		Stagger: -time.Second,
	}); err == nil {
		t.Error("negative stagger did not fail")
	}
	if _, err := Run(Config{Groups: []GroupSpec{{
		Profile:  KeyPlane,
		Workload: workload.Config{InitialJoins: 10, WarmUp: time.Second, ChurnLeaves: 20, Interval: time.Second},
	}}}); err == nil {
		t.Error("over-subscribed leaves did not fail")
	}
	// Equal names after "g<i>" defaulting would give two groups one
	// key-material seed, one obs namespace and one SLO group.
	for name, groups := range map[string][]GroupSpec{
		"two named x":         {{Name: "x", Workload: workload.Paper13(1)}, {Name: "x", Workload: workload.Paper13(2)}},
		"g1 beside unnamed 1": {{Name: "g1", Workload: workload.Paper13(1)}, {Workload: workload.Paper13(2)}},
	} {
		if _, err := Run(Config{Groups: groups}); err == nil || !strings.Contains(err.Error(), "duplicate group name") {
			t.Errorf("%s: err = %v, want a duplicate group name error", name, err)
		}
	}
}

// TestKeyPlaneDriversAgree checks the scale soak's streamed churn draw
// against a reference written out by hand. The soak streams its draw
// into a chaos.KeyTenant one interval at a time; here the same draw is
// written out as one workload.Schedule and stepped through chaos.Step on
// a tenancy host's KeyPlane tenant under the same key-material seed.
// The two must report the same rekey cost for every interval and end on
// the same keyring digest.
func TestKeyPlaneDriversAgree(t *testing.T) {
	cfg := chaos.ScaleConfig{
		Params: ident.Params{Digits: 2, Base: 32}, N: 900, Intervals: 6, Churn: 60,
		Seed: 42, Parallelism: 2, Verify: 64,
	}
	var progress strings.Builder
	cfg.Out = &progress
	rep, err := chaos.RunScaleSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("scale soak reported violations:\n%s", rep)
	}
	wantCost := []int{rep.SetupCost}
	for _, line := range strings.Split(strings.TrimSpace(progress.String()), "\n") {
		var iv, of, members, cost int
		if _, err := fmt.Sscanf(line, "interval %d/%d: members=%d cost=%d", &iv, &of, &members, &cost); err != nil {
			t.Fatalf("progress line %q: %v", line, err)
		}
		wantCost = append(wantCost, cost)
	}

	// Replay the soak's churn draw (chaos.RunScaleSoak: swap-remove
	// victims, LIFO-recycled IDs before fresh ones) as one schedule:
	// boundary k closes at k seconds.
	sched := &workload.Schedule{Hosts: cfg.N + cfg.Churn}
	at := func(k int) time.Duration { return time.Duration(k)*time.Second + time.Millisecond }
	active := make([]int, cfg.N)
	for i := range active {
		active[i] = i
		sched.Events = append(sched.Events, workload.Event{At: at(0), Kind: workload.Join, Host: i})
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7363616c))
	var free []int
	fresh := cfg.N
	for k := 1; k <= cfg.Intervals; k++ {
		var leaves []int
		for len(leaves) < cfg.Churn {
			i := rng.Intn(len(active))
			leaves = append(leaves, active[i])
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		var joins []int
		for len(joins) < cfg.Churn {
			if n := len(free); n > 0 {
				joins, free = append(joins, free[n-1]), free[:n-1]
			} else {
				joins = append(joins, fresh)
				fresh++
			}
		}
		sort.Ints(leaves) // host order is ID order
		sort.Ints(joins)
		for _, v := range leaves {
			sched.Events = append(sched.Events, workload.Event{At: at(k), Kind: workload.Leave, Victim: v})
		}
		for _, host := range joins {
			sched.Events = append(sched.Events, workload.Event{At: at(k), Kind: workload.Join, Host: host})
		}
		active = append(active, joins...)
		free = append(free, leaves...)
	}

	tn, err := newKeyTenant(sched.Hosts, keytree.SeedOf(cfg.Seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	soak, err := chaos.NewKeyTenant(cfg.Params, nil, keytree.Opts{}, 1, 0) // the soak's host map
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < sched.Hosts; h++ {
		got, err := tn.HostID(h)
		want, wantErr := soak.HostID(h)
		if err != nil || wantErr != nil || got != want {
			t.Fatalf("host %d is %v (%v) on the tenant, %v (%v) in the scale soak", h, got, err, want, wantErr)
		}
	}
	cur := sched.Cursor()
	for k, want := range wantCost {
		boundary := time.Duration(k+1) * time.Second
		st, err := chaos.Step(tn, cur.Next(boundary), boundary, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cost != want {
			t.Errorf("interval %d: tenant rekey cost %d, scale soak %d", k, st.Cost, want)
		}
		if len(st.Verdicts) == 0 {
			t.Fatal("no verdicts")
		}
		for _, v := range st.Verdicts {
			if v.Line() != "" {
				t.Errorf("interval %d: %s", k, v.Line())
			}
		}
	}
	var gr GroupReport
	tn.finish(&gr)
	if gr.FinalMembers != rep.FinalMembers || gr.KeyringDigest != rep.KeyringDigest || gr.KeyringDigest == 0 {
		t.Errorf("tenant ends with %d members, digest %016x; scale soak with %d members, digest %016x",
			gr.FinalMembers, gr.KeyringDigest, rep.FinalMembers, rep.KeyringDigest)
	}
}
