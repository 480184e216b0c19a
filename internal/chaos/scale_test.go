package chaos

import (
	"runtime"
	"strings"
	"testing"

	"tmesh/internal/ident"
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
		RealCrypto:  true,
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
		t.Errorf("implausible streaming cost percentiles: p50=%v p95=%v", a.CostP50, a.CostP95)
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

// TestScaleSoakSimulatedCrypto covers the server-side-only mode: no
// keyrings, no apply, but the tree still churns deterministically.
func TestScaleSoakSimulatedCrypto(t *testing.T) {
	cfg := testScaleConfig()
	cfg.RealCrypto = false
	cfg.Verify = 0
	a, err := RunScaleSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScaleSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("simulated-crypto soaks diverged:\n%s\nvs\n%s", a, b)
	}
	if a.KeysUpdated != 0 {
		t.Errorf("simulated crypto applied %d keys; apply should be skipped", a.KeysUpdated)
	}
	if a.TotalCost == 0 {
		t.Error("simulated crypto produced no rekey cost")
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
// a fully built RealCrypto world — server key tree, every member's
// keyring, the reusable applier — must stay under a resident
// bytes/member budget (GC-settled HeapAlloc delta across the build).
// 756 B/member is the committed measurement at N=20000; the budget
// carries ~1.5x headroom, so layout regressions on the million-member
// path fail here instead of surfacing in a production soak. (The
// per-interval allocation budget is the repo benchmark's
// keyplane_100k mem_bytes_per_member / allocs_per_member.)
func TestMemberFootprintBudget(t *testing.T) {
	const n, budget = 20000, 1150.0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := newScaleSoak(DefaultScaleConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perMember := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(w)
	t.Logf("resident footprint: %.0f bytes/member", perMember)
	if perMember > budget {
		t.Errorf("resident footprint %.0f bytes/member exceeds the %.0f budget", perMember, budget)
	}
}
