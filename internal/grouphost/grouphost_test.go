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
	"tmesh/internal/obs"
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
			Verify:   32,
		},
		{
			Name:     "mass",
			Profile:  KeyPlane,
			Workload: workload.MassJoinLeave(mass, mass/3, mass/3, 2, 17),
			Verify:   32,
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
			Verify:   128,
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
}

// TestKeyPlaneDriversAgree is the differential test of the one key-plane
// world's two drivers: the scale soak draws its churn from an RNG, a
// KeyPlane tenant from a workload.Schedule. Fed the same join/leave
// batches (the soak's draw, replayed here as a schedule) under the same
// key-material seed, they must report the same rekey cost for every
// interval and end on the same keyring digest.
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

	// Replay the soak's churn draw (chaos.scaleSoak.step: swap-remove
	// victims, LIFO-recycled IDs before fresh ones) as one schedule:
	// boundary k closes at k seconds, host index i is ID FromInt(i).
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
		sort.Ints(leaves) // FromInt preserves order: index order is ID order
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

	tn, err := newKeyTenant("diff", 64, sched.Hosts, []byte(fmt.Sprintf("chaos-%d", cfg.Seed)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tn.params != cfg.Params {
		t.Fatalf("tenant sized its ID space %+v, soak runs %+v", tn.params, cfg.Params)
	}
	cur := sched.Cursor()
	for k, want := range wantCost {
		boundary := time.Duration(k+1) * time.Second
		for _, ev := range cur.Next(boundary) {
			if err := tn.apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		got, err := tn.flush(boundary)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("interval %d: tenant rekey cost %d, scale soak %d", k, got, want)
		}
		if verdicts, _ := chaos.Audit(tn.evidence(), nil); len(verdicts) == 0 {
			t.Fatal("no verdicts")
		} else {
			for _, v := range verdicts {
				if v.Line() != "" {
					t.Errorf("interval %d: %s", k, v.Line())
				}
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
