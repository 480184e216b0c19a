package chaos

// Scale soak: the key plane alone (key tree, rank table, member
// keyrings) at memberships the network soak cannot reach. A KeyTenant
// takes the build-up as one batch, then the soak's churn draw one
// interval at a time through Step. The report is a pure function of the
// config, so same-config runs render byte-identically, which is what
// makes a million-member soak diffable across commits.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"tmesh/internal/core"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/metrics"
	"tmesh/internal/workload"
)

// ScaleConfig parameterises one scale soak.
type ScaleConfig struct {
	// Params is the ID space; Capacity() must cover N plus one
	// interval's worth of joins (leaves free their IDs only for later
	// intervals).
	Params ident.Params
	// N is the steady-state membership, built up in one initial batch.
	N int
	// Intervals is the number of churn intervals after the build-up.
	Intervals int
	// Churn is how many members leave — and how many join to replace
	// them — per interval. Joins prefer recycled IDs from earlier
	// leaves, so ID reuse with epoch bumps is exercised continuously.
	Churn int
	// Seed drives every random draw.
	Seed int64
	// Parallelism is an upper bound on the regenerate/apply fan-out
	// width (values < 1 mean 1, i.e. inline). The report is identical
	// at any setting.
	Parallelism int
	// Verify spot-checks this many member keyrings against the server
	// tree each interval (0 disables; capped at the group size).
	// Mismatches land in the report as violations.
	Verify int
	// Out, when non-nil, receives one progress line per interval
	// (including live heap readings, which deliberately stay out of
	// the deterministic report).
	Out io.Writer
}

// DefaultScaleConfig returns a scale soak sized for n members: base-32
// IDs with just enough digits to hold n plus churn headroom, 1% churn
// per interval, and keyring spot checks.
func DefaultScaleConfig(n int) ScaleConfig {
	churn := max(n/100, 1)
	return ScaleConfig{
		Params:      ident.Base32For(n + churn),
		N:           n,
		Intervals:   8,
		Churn:       churn,
		Seed:        1,
		Parallelism: runtime.GOMAXPROCS(0),
		Verify:      256,
	}
}

func (c *ScaleConfig) validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("chaos: scale: %w", err)
	}
	switch {
	case c.N < 1:
		return fmt.Errorf("chaos: scale: N must be >= 1, got %d", c.N)
	case c.Intervals < 0:
		return fmt.Errorf("chaos: scale: Intervals must be >= 0, got %d", c.Intervals)
	case c.Churn < 0 || c.Churn > c.N:
		return fmt.Errorf("chaos: scale: Churn must be in [0, N], got %d", c.Churn)
	case c.Params.Capacity() < c.N+c.Churn:
		return fmt.Errorf("chaos: scale: ID space %dx%d holds %d users, need %d members + %d churn headroom",
			c.Params.Digits, c.Params.Base, c.Params.Capacity(), c.N, c.Churn)
	}
	return nil
}

// ScaleReport is the outcome of one scale soak. String() is a pure
// function of the config: two same-config runs render byte-identically.
type ScaleReport struct {
	Seed                int64
	Params              ident.Params
	N, Intervals, Churn int

	FinalMembers int
	// RankWidth is the final dense-rank width of the key tree — the
	// high-water member count, never shrinking under churn. Steady
	// membership must keep it within one churn batch of N.
	RankWidth int

	SetupCost   int   // encryptions in the build-up rekey message
	TotalCost   int64 // encryptions across all churn intervals
	MaxCost     int
	KeysUpdated int64 // keys installed across all member keyrings

	// CostP50/CostP95 are nearest-rank percentiles of the per-interval
	// rekey cost.
	CostP50, CostP95 float64

	// Violations holds keyring spot-check failures, at most one line
	// per failed auditor per interval.
	Violations []string

	// KeyringDigest commits to the final group keys, the server's and
	// each member's in ID order (core.KeyringDigest) — the same value a
	// tenancy-host KeyPlane group reports, so the two soaks over the one
	// key-plane world can be tested against each other. Not in String().
	KeyringDigest uint64
}

// String renders the canonical (deterministic) scale soak report.
func (r *ScaleReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scale soak seed=%d params=%dx%d n=%d intervals=%d churn=%d\n",
		r.Seed, r.Params.Digits, r.Params.Base, r.N, r.Intervals, r.Churn)
	fmt.Fprintf(&b, "cost: setup=%d total=%d max=%d p50=%.1f p95=%.1f keys_updated=%d\n",
		r.SetupCost, r.TotalCost, r.MaxCost, r.CostP50, r.CostP95, r.KeysUpdated)
	fmt.Fprintf(&b, "final: members=%d rank_width=%d violations=%d\n",
		r.FinalMembers, r.RankWidth, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	return b.String()
}

// KeyTenant is the key plane as a Plane: a core.KeyPlane whose members
// are schedule hosts, host h holding ID ident.FromInt(h), so a rejoin
// reuses its ID under a fresh key epoch and a crash is a leave in the
// tree. The scale soak streams its churn draw into one; the tenancy
// host's KeyPlane groups replay a workload.Schedule into theirs.
type KeyTenant struct {
	// Joins and Leaves count the events applied (a crash is a leave);
	// Installed is the number of keys the last Flush installed across
	// the survivors' keyrings.
	Joins, Leaves int
	Installed     int64

	world  *core.KeyPlane // the membership: its tree ranks every keyed member
	sample int            // keyrings each Evidence spot-checks
	// joining holds the joins queued since the last boundary. Flush
	// drops it instead of clearing it: a cleared map keeps the buckets of
	// its largest batch, and a build-up's batch is the whole group.
	joining map[ident.ID]bool
}

// NewKeyTenant builds an empty key plane over params: seed is the key
// material's, opts the tree's (its CapacityHint also sizes the keyring
// slab), limit the regen and apply fan-out bound (<= 0: none), and
// sample how many member keyrings each Evidence spot-checks against the
// server tree.
func NewKeyTenant(params ident.Params, seed []byte, opts keytree.Opts, limit, sample int) (*KeyTenant, error) {
	world, err := core.NewKeyPlane(params, seed, opts, limit)
	if err != nil {
		return nil, err
	}
	return &KeyTenant{world: world, sample: sample}, nil
}

// World exposes the key plane (read-only use).
func (t *KeyTenant) World() *core.KeyPlane { return t.world }

// Size returns the number of keyed members.
func (t *KeyTenant) Size() int { return t.world.Tree().Size() }

// Apply queues one event into the interval's batch. A member is a host
// with a keyring: a leave drops it at once, so a departed host may join
// again before the boundary.
func (t *KeyTenant) Apply(ev workload.Event) error {
	host := ev.Subject()
	id, err := ident.FromInt(t.world.Tree().Params(), host)
	if err != nil {
		return fmt.Errorf("schedule host %d: %w", host, err)
	}
	switch ev.Kind {
	case workload.Join:
		if t.joining[id] || t.world.Keyring(id) != nil {
			return fmt.Errorf("join of schedule host %d, already a member", host)
		}
		if t.joining == nil {
			t.joining = make(map[ident.ID]bool)
		}
		t.world.Join(id)
		t.joining[id] = true
		t.Joins++
	case workload.Leave, workload.Crash:
		t.Leaves++
		if t.joining[id] {
			delete(t.joining, id) // joined and left between two boundaries: never keyed
		} else if t.world.Keyring(id) == nil {
			return fmt.Errorf("leave of absent host %d", host)
		}
		t.world.Leave(id)
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
	return nil
}

// Flush rekeys the world over the queued churn: a flash-crowd interval
// or a whole build-up is a single call.
func (t *KeyTenant) Flush(time.Duration) (cost int, err error) {
	t.joining = nil
	_, _, cost, t.Installed, err = t.world.Rekey()
	return cost, err
}

// Evidence is the key plane's: the server tree and up to sample member
// keyrings, picked by a stride over the tree's ranks, to compare with it
// key for key. There is no overlay, no multicast, no cluster state and
// no ladder on this plane, so every other check passes vacuously.
func (t *KeyTenant) Evidence() *Evidence {
	tree := t.world.Tree()
	ev := &Evidence{Tree: tree, Keyring: t.world.Keyring}
	ranks := tree.Ranks()
	if n := min(t.sample, ranks.Len()); n > 0 {
		stride := ranks.Len() / n
		for r := 0; r < ranks.Width() && len(ev.Keyed) < n; r++ {
			if id, ok := ranks.IDOf(ident.Rank(r)); ok {
				ev.Keyed = append(ev.Keyed, id)
				r += stride - 1
			}
		}
	}
	return ev
}

// RunScaleSoak executes one scale soak: a KeyTenant takes the build-up
// as one batch of N joins, then the churn one interval at a time. The
// draw is the soak's own. Each interval, Churn victims leave, drawn by
// swap-remove from the members in draw order, and as many hosts join,
// taking the hosts earlier leaves freed (the last freed first) before
// fresh ones. After the boundary the joiners rejoin the draw order and
// the leavers the freed hosts, each in ID order.
func RunScaleSoak(cfg ScaleConfig) (*ScaleReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t, err := NewKeyTenant(cfg.Params, keytree.SeedOf(cfg.Seed), keytree.Opts{
		CapacityHint: cfg.N + cfg.Churn,
	}, max(cfg.Parallelism, 1), cfg.Verify)
	if err != nil {
		return nil, err
	}
	rep := &ScaleReport{
		Seed: cfg.Seed, Params: cfg.Params,
		N: cfg.N, Intervals: cfg.Intervals, Churn: cfg.Churn,
	}
	record := func(iv int, st Stepped) {
		for _, v := range st.Verdicts {
			if line := v.Line(); line != "" {
				rep.Violations = append(rep.Violations, fmt.Sprintf("interval %d: %s", iv, line))
			}
		}
	}

	// Host h is ID FromInt(Params, h), so host order is ID order.
	active := make([]int, cfg.N) // the members' hosts, in victim-draw order
	build := make([]workload.Event, cfg.N)
	for h := range active {
		active[h] = h
		build[h] = workload.Event{Kind: workload.Join, Host: h}
	}
	st, err := Step(t, build, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("chaos: scale: build-up: %w", err)
	}
	rep.SetupCost = st.Cost
	record(0, st)

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7363616c)) // "scal"
	var free, leaves, joins []int                          // free: hosts earlier leaves freed, reused LIFO
	fresh := cfg.N                                         // first never-used host
	events := make([]workload.Event, 0, 2*cfg.Churn)
	costs := make([]float64, 0, cfg.Intervals)
	for iv := 1; iv <= cfg.Intervals; iv++ {
		events, leaves, joins = events[:0], leaves[:0], joins[:0]
		for len(leaves) < cfg.Churn {
			i := rng.Intn(len(active))
			leaves = append(leaves, active[i])
			events = append(events, workload.Event{Kind: workload.Leave, Victim: active[i]})
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		for len(joins) < cfg.Churn {
			h := fresh
			if n := len(free); n > 0 {
				h, free = free[n-1], free[:n-1]
			} else {
				fresh++
			}
			joins = append(joins, h)
			events = append(events, workload.Event{Kind: workload.Join, Host: h})
		}
		st, err := Step(t, events, time.Duration(iv), nil)
		if err != nil {
			return nil, fmt.Errorf("chaos: scale: interval %d: %w", iv, err)
		}
		slices.Sort(joins)
		slices.Sort(leaves)
		active = append(active, joins...)
		free = append(free, leaves...)

		rep.TotalCost += int64(st.Cost)
		rep.MaxCost = max(rep.MaxCost, st.Cost)
		costs = append(costs, float64(st.Cost))
		rep.KeysUpdated += t.Installed
		record(iv, st)
		if cfg.Out != nil {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Fprintf(cfg.Out, "interval %d/%d: members=%d cost=%d applied=%d heap=%dMB\n",
				iv, cfg.Intervals, t.Size(), st.Cost, t.Installed, ms.HeapAlloc>>20)
		}
	}

	rep.FinalMembers = t.Size()
	rep.RankWidth = t.world.Tree().Ranks().Width()
	d := metrics.NewDistribution(costs)
	rep.CostP50, rep.CostP95 = d.Percentile(50), d.Percentile(95)
	rep.KeyringDigest = t.world.Digest()
	return rep, nil
}
