// Package slo is a deterministic, sim-time streaming SLI/SLO engine for
// the rekey service: each rekey boundary feeds one Boundary of service
// indicators (delivery success, sim-time key latencies, ladder
// escalations, dead-in-flight chains) and gets back one Record with
// per-objective multi-window burn rates and an ok/warn/page verdict.
//
// Determinism is the design constraint, inherited from the PR 4
// telemetry discipline: every input is a count or a virtual-clock
// latency, every evaluation is pure arithmetic over ring-buffered
// windows, and the latency quantiles are nearest-rank over every
// latency fed so far. Two seed-identical soaks — at any worker-pool
// width, with the ops plane on or off — produce byte-identical SLO
// records, so soak replays can assert verdicts, not just eyeball them.
//
// The burn-rate scheme is the standard multi-window one: an objective
// with target t has an error budget 1-t; burn = observed error rate
// divided by budget. A page needs the fast window burning at pageBurn
// or more while the slow window confirms (burn >= 1), so one bad
// boundary right after startup warns rather than pages, and a slow leak
// that never spikes still eventually pages.
package slo

import (
	"tmesh/internal/metrics"
	"tmesh/internal/obs"
)

// Verdict is the health call for one objective or one boundary.
type Verdict int

const (
	OK Verdict = iota
	Warn
	Page
)

func (v Verdict) String() string {
	switch v {
	case OK:
		return "ok"
	case Warn:
		return "warn"
	case Page:
		return "page"
	default:
		return "invalid"
	}
}

// The burn-rate windows, in rekey boundaries (the fast one detects
// spikes, the slow one confirms them); the fast-window burn rate that
// pages when the slow window confirms; and the per-member key-delivery
// latency objective, in sim-time milliseconds from rekey start.
const (
	fastWindow, slowWindow = 5, 20
	pageBurn               = 2
	latencyBudgetMS        = 5000
)

// Config parameterises one tenant's engine.
type Config struct {
	// Group labels the records and live instruments (the tenant name).
	Group string
	// Sink, when non-nil, receives one "slo" JSONL record per boundary.
	Sink *obs.Sink
	// Obs, when non-nil, carries live gauges/counters for /metrics
	// (verdict, members, p95 latency, verdict totals). Pass a
	// per-tenant namespace so groups don't collide.
	Obs *obs.Registry
}

// Boundary is the deterministic service-indicator bundle for one rekey
// boundary. All fields are counts or sim-time values; wall-clock data
// must never enter here.
type Boundary struct {
	// Boundary is the 1-based boundary number within the run.
	Boundary int
	// Members is the group size at the boundary.
	Members int
	// Expected is the number of surviving members owed the group key
	// this boundary; Delivered of them actually hold it.
	Expected, Delivered int
	// Escalations counts deliveries that needed ladder rung >= 2
	// (unicast recovery or full resync).
	Escalations int
	// DeadInFlight counts recovery chains that died mid-flight (member
	// crashed or left while its ladder chain was running).
	DeadInFlight int
	// LatenciesMS are the per-member key-delivery latencies in sim-time
	// milliseconds, in a deterministic (member-ID) order.
	LatenciesMS []float64
	// RekeyCost is the interval's rekey message size in encryptions.
	RekeyCost int
}

// ObjectiveStatus is one objective's evaluation at one boundary.
type ObjectiveStatus struct {
	Name     string  `json:"name"`
	Good     int64   `json:"good"`
	Total    int64   `json:"total"`
	Target   float64 `json:"target"`
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	Verdict  string  `json:"verdict"`
}

// Record is the per-boundary JSONL record (kind "slo").
type Record struct {
	Kind         string            `json:"kind"`
	Group        string            `json:"group"`
	Boundary     int               `json:"boundary"`
	Members      int               `json:"members"`
	RekeyCost    int               `json:"rekey_cost"`
	LatencyP50MS float64           `json:"latency_p50_ms"`
	LatencyP95MS float64           `json:"latency_p95_ms"`
	Objectives   []ObjectiveStatus `json:"objectives"`
	Verdict      string            `json:"verdict"`
}

// objective is one SLI definition: a name, a target success ratio, and
// the extraction of (good, total) event counts from a boundary.
type objective struct {
	name   string
	target float64
	events func(Boundary) (good, total int64)
}

// Objectives is the fixed SLI set, evaluated in order. Targets are
// chosen so a healthy soak is all-ok and a paper-invariant violation
// (a surviving member without the key) pages immediately.
var objectives = []objective{
	{"delivery", 0.999, func(b Boundary) (int64, int64) {
		return int64(b.Delivered), int64(b.Expected)
	}},
	{"latency", 0.99, func(b Boundary) (int64, int64) {
		return 0, 0 // filled by the engine, which knows the budget
	}},
	{"ladder", 0.75, func(b Boundary) (int64, int64) {
		return int64(b.Delivered - b.Escalations), int64(b.Delivered)
	}},
	{"dead_in_flight", 0.99, func(b Boundary) (int64, int64) {
		return int64(b.Expected), int64(b.Expected + b.DeadInFlight)
	}},
}

// window is a ring buffer of per-boundary (good, total) event counts.
type window struct {
	good, total []int64
	next, n     int
}

func newWindow(size int) *window {
	return &window{good: make([]int64, size), total: make([]int64, size)}
}

func (w *window) push(good, total int64) {
	w.good[w.next], w.total[w.next] = good, total
	w.next = (w.next + 1) % len(w.good)
	if w.n < len(w.good) {
		w.n++
	}
}

// errRate returns the error fraction over the last k boundaries (all
// retained ones when k exceeds the fill). Zero totals are healthy: an
// objective with no events has spent no error budget.
func (w *window) errRate(k int) float64 {
	if k > w.n {
		k = w.n
	}
	var good, total int64
	for i := 1; i <= k; i++ {
		j := (w.next - i + len(w.good)) % len(w.good)
		good += w.good[j]
		total += w.total[j]
	}
	if total <= 0 {
		return 0
	}
	return 1 - float64(good)/float64(total)
}

// Engine evaluates one tenant's objectives boundary by boundary.
type Engine struct {
	cfg     Config
	windows []*window
	lat     metrics.Distribution // every latency fed so far
	totals  [3]int               // verdict counts by Verdict

	verdictG, membersG, p95G, costG *obs.Gauge
	verdictC                        [3]*obs.Counter
}

// New builds an engine.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	for range objectives {
		e.windows = append(e.windows, newWindow(slowWindow))
	}
	// Live instruments (nil-safe no-ops when cfg.Obs is nil).
	e.verdictG = cfg.Obs.Gauge("slo_verdict")
	e.membersG = cfg.Obs.Gauge("slo_members")
	e.p95G = cfg.Obs.Gauge("slo_latency_p95_us")
	e.costG = cfg.Obs.Gauge("slo_rekey_cost")
	for v := OK; v <= Page; v++ {
		e.verdictC[v] = cfg.Obs.Counter("slo_verdict_" + v.String())
	}
	return e
}

// Observe folds one boundary into the windows and latencies, evaluates
// every objective, updates the live instruments, emits the JSONL record
// when a sink is configured, and returns the record. Not safe for
// concurrent use; each tenant owns its engine.
func (e *Engine) Observe(b Boundary) Record {
	withinBudget := int64(0)
	for _, l := range b.LatenciesMS {
		if l <= latencyBudgetMS {
			withinBudget++
		}
	}
	e.lat.Add(b.LatenciesMS...)

	rec := Record{
		Kind:         "slo",
		Group:        e.cfg.Group,
		Boundary:     b.Boundary,
		Members:      b.Members,
		RekeyCost:    b.RekeyCost,
		LatencyP50MS: e.lat.Percentile(50),
		LatencyP95MS: e.lat.Percentile(95),
	}
	worst := OK
	for i, o := range objectives {
		good, total := o.events(b)
		if o.name == "latency" {
			good, total = withinBudget, int64(len(b.LatenciesMS))
		}
		if good < 0 {
			good = 0
		}
		w := e.windows[i]
		w.push(good, total)
		budget := 1 - o.target
		burnFast := w.errRate(fastWindow) / budget
		burnSlow := w.errRate(slowWindow) / budget
		v := OK
		switch {
		case burnFast >= pageBurn && burnSlow >= 1:
			v = Page
		case burnFast >= 1:
			v = Warn
		}
		if v > worst {
			worst = v
		}
		rec.Objectives = append(rec.Objectives, ObjectiveStatus{
			Name: o.name, Good: good, Total: total, Target: o.target,
			BurnFast: burnFast, BurnSlow: burnSlow, Verdict: v.String(),
		})
	}
	rec.Verdict = worst.String()
	e.totals[worst]++

	e.verdictG.Set(int64(worst))
	e.membersG.Set(int64(b.Members))
	e.p95G.Set(int64(rec.LatencyP95MS * 1000))
	e.costG.Set(int64(b.RekeyCost))
	e.verdictC[worst].Inc()
	e.cfg.Sink.Emit(rec)
	return rec
}

// Totals returns how many boundaries closed at each verdict.
func (e *Engine) Totals() (ok, warn, page int) {
	return e.totals[OK], e.totals[Warn], e.totals[Page]
}
