package chaos

// Scale soak: a churn loop over the key-management core alone — key
// tree, rank tables, member keyrings — at membership sizes the full
// network soak cannot reach (the virtual topology and per-hop event
// simulation stop being the point at a million members; the flat state
// layout is). Each interval leaves and rejoins a slice of the group,
// batches the churn through Mark/Regenerate, and applies the rekey
// message to every surviving member's keyring through a per-interval
// encryption index, so the apply side costs O(members × depth) lookups
// instead of O(members × message cost) scans.
//
// Everything observed into the report is a pure function of the config
// (virtual structure, counts, streaming percentiles fed in member
// order), so two runs with the same config produce byte-identical
// String() output — the replay test pins this, which is what makes a
// million-member soak diffable across commits.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"tmesh/internal/core"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/metrics"
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
	churn := n / 100
	if churn < 1 {
		churn = 1
	}
	params := ident.Params{Digits: 1, Base: 32}
	for cap := 32; cap < n+churn; cap *= 32 {
		params.Digits++
	}
	return ScaleConfig{
		Params:      params,
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

	// CostP50/CostP95 are streaming (P²) percentiles of the
	// per-interval rekey cost.
	CostP50, CostP95 float64

	// Violations holds keyring spot-check failures, at most one line
	// per failed auditor per interval.
	Violations []string

	// KeyringDigest commits to the final keyrings (core.KeyringDigest
	// over the members in ID order) — the same value a tenancy-host
	// KeyPlane group reports, so the two drivers of the one key-plane
	// world can be tested against each other. It is not part of
	// String().
	KeyringDigest uint64

	// HeapAllocEnd and BytesPerMember are live-heap observability from
	// the final interval. They are machine- and GC-timing-dependent,
	// so String() excludes them.
	HeapAllocEnd   uint64
	BytesPerMember float64
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

// scaleSoak is the live state of a scale soak: the key-plane world and
// the churn bookkeeping that decides who leaves and who (re)joins.
type scaleSoak struct {
	cfg       ScaleConfig
	world     *core.KeyPlane
	rng       *rand.Rand
	active    []ident.ID
	free      []ident.ID // IDs recycled by earlier leaves, reused LIFO
	nextFresh int        // first never-used ID
	setupCost int
}

// newScaleSoak validates the config and runs the build-up: the whole
// group joins in one batch — the million-member Mark/Regenerate the
// flat layout exists for — and every member gets its join-time keyring.
func newScaleSoak(cfg ScaleConfig) (*scaleSoak, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	world, err := core.NewKeyPlane(cfg.Params, seedBytes(cfg.Seed), keytree.Opts{
		CapacityHint: cfg.N + cfg.Churn,
	}, max(cfg.Parallelism, 1))
	if err != nil {
		return nil, err
	}
	w := &scaleSoak{
		cfg: cfg, world: world,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x7363616c)), // "scal"
		active:    make([]ident.ID, cfg.N),
		nextFresh: cfg.N,
	}
	var batch keytree.Pending
	for i := range w.active {
		if w.active[i], err = ident.FromInt(cfg.Params, i); err != nil {
			return nil, err
		}
		batch.Join(w.active[i])
	}
	_, _, w.setupCost, _, err = world.Rekey(&batch, nil)
	return w, err
}

// step runs one churn interval: draw leave victims and replacement
// joins and rekey the world over them. It returns the interval's rekey
// cost and the number of keys installed.
func (w *scaleSoak) step() (cost int, updated int64, err error) {
	// Draw leave victims by swap-remove, keeping `active` dense.
	var batch keytree.Pending
	for n := 0; n < w.cfg.Churn; n++ {
		i := w.rng.Intn(len(w.active))
		batch.Leave(w.active[i])
		w.active[i] = w.active[len(w.active)-1]
		w.active = w.active[:len(w.active)-1]
	}
	// Replacement joins: recycled IDs first (epoch-bump rejoins), then
	// fresh ones.
	for n := 0; n < w.cfg.Churn; n++ {
		if n := len(w.free); n > 0 {
			batch.Join(w.free[n-1])
			w.free = w.free[:n-1]
			continue
		}
		id, ferr := ident.FromInt(w.cfg.Params, w.nextFresh)
		if ferr != nil {
			return 0, 0, fmt.Errorf("chaos: scale: ID space exhausted: %w", ferr)
		}
		w.nextFresh++
		batch.Join(id)
	}

	joins, leaves, cost, updated, err := w.world.Rekey(&batch, w.active)
	if err != nil {
		return 0, 0, err
	}
	w.active = append(w.active, joins...)
	w.free = append(w.free, leaves...)
	return cost, updated, nil
}

// RunScaleSoak executes one scale soak.
func RunScaleSoak(cfg ScaleConfig) (*ScaleReport, error) {
	w, err := newScaleSoak(cfg)
	if err != nil {
		return nil, err
	}
	rep := &ScaleReport{
		Seed: cfg.Seed, Params: cfg.Params,
		N: cfg.N, Intervals: cfg.Intervals, Churn: cfg.Churn,
		SetupCost: w.setupCost,
	}
	costQ50 := metrics.NewStreamingQuantile(0.5)
	costQ95 := metrics.NewStreamingQuantile(0.95)

	for iv := 1; iv <= cfg.Intervals; iv++ {
		cost, updated, err := w.step()
		if err != nil {
			return nil, fmt.Errorf("chaos: scale: interval %d: %w", iv, err)
		}
		rep.TotalCost += int64(cost)
		if cost > rep.MaxCost {
			rep.MaxCost = cost
		}
		costQ50.Observe(float64(cost))
		costQ95.Observe(float64(cost))
		rep.KeysUpdated += updated

		if cfg.Verify > 0 {
			verdicts, _ := Audit(KeyPlaneEvidence(w.world, w.active, cfg.Verify), nil)
			for _, v := range verdicts {
				if line := v.Line(); line != "" {
					rep.Violations = append(rep.Violations, fmt.Sprintf("interval %d: %s", iv, line))
				}
			}
		}
		if cfg.Out != nil {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Fprintf(cfg.Out, "interval %d/%d: members=%d cost=%d applied=%d heap=%dMB\n",
				iv, cfg.Intervals, len(w.active), cost, updated, ms.HeapAlloc>>20)
		}
	}

	rep.FinalMembers = len(w.active)
	rep.RankWidth = w.world.Tree().Ranks().Width()
	rep.CostP50 = costQ50.Value()
	rep.CostP95 = costQ95.Value()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapAllocEnd = ms.HeapAlloc
	rep.BytesPerMember = float64(ms.HeapAlloc) / float64(cfg.N)
	final := append([]ident.ID(nil), w.active...)
	sort.Slice(final, func(i, j int) bool { return final[i].Compare(final[j]) < 0 })
	rep.KeyringDigest = w.world.Digest(final)
	return rep, nil
}

// KeyPlaneEvidence is what a key-plane world leaves for the auditors:
// the server tree and up to `sample` member keyrings, spread evenly
// across the listed members, to compare with it key for key. There is
// no overlay, no multicast, no cluster state and no ladder on this
// plane, so every other check passes vacuously.
func KeyPlaneEvidence(w *core.KeyPlane, members []ident.ID, sample int) *Evidence {
	ev := &Evidence{Tree: w.Tree(), Keyring: w.Keyring}
	if sample = min(sample, len(members)); sample > 0 {
		stride := len(members) / sample
		for i := 0; i < sample; i++ {
			ev.Keyed = append(ev.Keyed, members[i*stride])
		}
	}
	return ev
}
