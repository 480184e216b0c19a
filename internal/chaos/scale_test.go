package chaos

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/workload"
)

// testScaleConfig is a small but fully exercised scale soak: base-16
// IDs, enough churn that recycled IDs rejoin within a few intervals,
// and Verify covering every member so the apply path is checked
// exhaustively, not sampled.
func testScaleConfig() ScaleConfig {
	return ScaleConfig{
		Params:      ident.Params{Digits: 3, Base: 16}, // capacity 4096
		N:           900,
		Intervals:   12,
		Churn:       60,
		Seed:        42,
		Parallelism: 4,
		Verify:      1 << 30, // capped at the group size: check everyone
	}
}

// TestScaleSoakReplayByteIdentical runs the same config twice (at
// different parallelism, which must not matter) and requires
// byte-identical reports with zero violations: the soak is a replayable
// experiment, not a load generator.
func TestScaleSoakReplayByteIdentical(t *testing.T) {
	cfg := testScaleConfig()
	a, err := RunScaleSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 1
	b, err := RunScaleSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same-seed scale soaks diverged:\n--- par=4\n%s--- par=1\n%s", a, b)
	}
	if len(a.Violations) != 0 {
		t.Fatalf("scale soak reported violations:\n%s", a)
	}
	if a.FinalMembers != cfg.N {
		t.Errorf("final members = %d, want steady-state %d", a.FinalMembers, cfg.N)
	}
	// Rank width may exceed N only by IDs that were simultaneously
	// live; with replacement churn that is at most one churn batch.
	if a.RankWidth > cfg.N+cfg.Churn {
		t.Errorf("rank width %d exceeds N+Churn = %d: ranks are not being reused",
			a.RankWidth, cfg.N+cfg.Churn)
	}
	if a.TotalCost == 0 || a.KeysUpdated == 0 {
		t.Errorf("soak did no work: total cost %d, keys updated %d", a.TotalCost, a.KeysUpdated)
	}
	if a.CostP50 <= 0 || a.CostP95 < a.CostP50 {
		t.Errorf("implausible cost percentiles: p50=%v p95=%v", a.CostP50, a.CostP95)
	}

	// A different seed must visibly change the report (the RNG is wired
	// up), while keeping the soak green.
	cfg = testScaleConfig()
	cfg.Seed = 43
	c, err := RunScaleSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.String() == a.String() {
		t.Error("seed 42 and 43 produced identical reports")
	}
	if len(c.Violations) != 0 {
		t.Fatalf("seed 43 soak reported violations:\n%s", c)
	}
}

// TestScaleSoakPercentilesAreNearestRank: the report's cost percentiles
// are the nearest-rank p50 and p95 of the per-interval costs the soak
// printed, not estimates of them.
func TestScaleSoakPercentilesAreNearestRank(t *testing.T) {
	cfg := DefaultScaleConfig(500)
	var out strings.Builder
	cfg.Out = &out
	rep, err := RunScaleSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var costs []float64
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "cost="); ok {
				c, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("progress line %q: %v", line, err)
				}
				costs = append(costs, float64(c))
			}
		}
	}
	if len(costs) != cfg.Intervals {
		t.Fatalf("read %d costs from %d intervals:\n%s", len(costs), cfg.Intervals, out.String())
	}
	sort.Float64s(costs)
	rank := func(p float64) float64 { return costs[int(math.Ceil(p/100*float64(len(costs))))-1] }
	if rep.CostP50 != rank(50) || rep.CostP95 != rank(95) {
		t.Errorf("cost p50=%v p95=%v, want nearest-rank %v and %v of %v",
			rep.CostP50, rep.CostP95, rank(50), rank(95), costs)
	}
}

// TestScaleSoakGolden pins a scale soak at N=2000, 6 intervals and 20
// churn: its report and the members and cost of each progress line must
// match testdata/scale-2000.golden byte for byte. The churn draw (who
// leaves, which IDs rejoin, in what order the survivors are kept) fixes
// every cost, so a change to the draw or to the key plane shows here.
func TestScaleSoakGolden(t *testing.T) {
	cfg := DefaultScaleConfig(2000)
	cfg.Intervals, cfg.Churn = 6, 20
	var out strings.Builder
	cfg.Out = &out
	rep, err := RunScaleSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	got.WriteString(rep.String())
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var iv, of, members, cost int
		if _, err := fmt.Sscanf(line, "interval %d/%d: members=%d cost=%d", &iv, &of, &members, &cost); err != nil {
			t.Fatalf("progress line %q: %v", line, err)
		}
		fmt.Fprintf(&got, "interval %d/%d: members=%d cost=%d\n", iv, of, members, cost)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "scale-2000.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("scale soak drifted from its golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// TestScaleConfigValidate pins the config error cases.
func TestScaleConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*ScaleConfig)
		want string
	}{
		{"zero members", func(c *ScaleConfig) { c.N = 0 }, "N must be"},
		{"negative intervals", func(c *ScaleConfig) { c.Intervals = -1 }, "Intervals must be"},
		{"churn above N", func(c *ScaleConfig) { c.Churn = c.N + 1 }, "Churn must be"},
		{"id space too small", func(c *ScaleConfig) { c.N = 4090; c.Churn = 60 }, "churn headroom"},
		{"bad params", func(c *ScaleConfig) { c.Params = ident.Params{} }, ""},
	}
	for _, tc := range cases {
		cfg := testScaleConfig()
		tc.mod(&cfg)
		_, err := RunScaleSoak(cfg)
		if err == nil {
			t.Errorf("%s: RunScaleSoak accepted an invalid config", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDefaultScaleConfig checks the capacity sizing: the chosen ID
// space must hold N plus churn, at every order of magnitude.
func TestDefaultScaleConfig(t *testing.T) {
	for _, n := range []int{1, 10, 1000, 100_000, 1_000_000} {
		cfg := DefaultScaleConfig(n)
		if err := cfg.validate(); err != nil {
			t.Errorf("DefaultScaleConfig(%d) is invalid: %v", n, err)
		}
		if cfg.Params.Capacity() < n {
			t.Errorf("DefaultScaleConfig(%d): capacity %d too small", n, cfg.Params.Capacity())
		}
	}
}

// TestMemberFootprintBudget is the memory gate of the flat state layout:
// a fully built key tenant — server key tree, every member's
// keyring, the reusable applier — must stay under a resident
// bytes/member budget (GC-settled HeapAlloc delta across the build),
// both right after build-up and in steady state, after two churn
// intervals have run every member's apply. At N=20000 the committed
// measurements are 291 B/member built and in steady state, with IDs one
// machine word each (337 when they were digit strings and the rank and
// epoch maps string-keyed; 355 when the gate also counted the scale
// soak's list of member IDs), the keyrings in one slab and the ID tree
// holding internal nodes only (a user ID is a bit in its parent's digit
// set; with an entry per user ID in two maps and a k-node index beside
// them it was 535); the budget is the steady-state reading × 1.25,
// so layout regressions on the million-member path fail here instead
// of surfacing in a production soak. Only the steady-state reading
// sees state an apply leaves on every keyring: a scratch slice kept
// per ring added ~200. (The
// per-interval allocation budget is the repo benchmark's keyplane_100k
// mem_bytes_per_member / allocs_per_member.)
func TestMemberFootprintBudget(t *testing.T) {
	const n, budget = 20000, 364.0
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	perMember := func() float64 {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	}
	cfg := DefaultScaleConfig(n)
	tn, err := NewKeyTenant(cfg.Params, keytree.SeedOf(cfg.Seed), keytree.Opts{CapacityHint: n + cfg.Churn}, cfg.Parallelism, cfg.Verify)
	if err != nil {
		t.Fatal(err)
	}
	step := func(events []workload.Event) {
		if _, err := Step(tn, events, 0); err != nil {
			t.Fatal(err)
		}
	}
	build := make([]workload.Event, n)
	for h := range build {
		build[h] = workload.Event{Kind: workload.Join, Host: h}
	}
	step(build)
	build = nil
	built := perMember()
	// Interval 0 replaces hosts 0..Churn-1 with fresh ones; interval 1
	// replaces the next Churn hosts with the ones interval 0 freed, which
	// rejoin under a fresh key epoch.
	for k := 0; k < 2; k++ {
		var churn []workload.Event
		for i := 0; i < cfg.Churn; i++ {
			join := n + i
			if k == 1 {
				join = i
			}
			churn = append(churn, workload.Event{Kind: workload.Leave, Victim: k*cfg.Churn + i},
				workload.Event{Kind: workload.Join, Host: join})
		}
		step(churn)
	}
	steady := perMember()
	runtime.KeepAlive(tn)
	for _, m := range []struct {
		when string
		got  float64
	}{{"built", built}, {"steady state", steady}} {
		t.Logf("resident footprint, %s: %.0f bytes/member", m.when, m.got)
		if m.got > budget {
			t.Errorf("resident footprint, %s: %.0f bytes/member exceeds the %.0f budget", m.when, m.got, budget)
		}
	}
}
