// Package obs is the zero-dependency observability layer for the rekey
// pipeline and the chaos soak: a registry of named counters, gauges, and
// fixed-bucket latency histograms, plus explicit Span timing for
// pipeline stages and soak phases.
//
// Design rules, enforced throughout the tree:
//
//   - Off by default, nil-safe everywhere. A nil *Registry (and every
//     instrument it hands out) is a no-op: no allocation, no lock, and —
//     critically — no wall-clock read. Instrumented code paths need no
//     `if obs != nil` guards. The same nil turns off WithStage's pprof
//     labels, which otherwise follow the registry's namespace.
//   - Allocation-light on the hot path. Instruments are looked up once
//     (one mutex acquisition) and then updated with plain atomics;
//     histograms use fixed bucket bounds chosen at creation.
//   - Wall-clock values never reach deterministic output. Span
//     durations land only in registry histograms, which are exported
//     via Snapshot (/metrics, the -metrics-out summary record) — never
//     into soak reports, experiment result files, or any output the
//     determinism tests byte-compare. Seed-identical runs are
//     byte-identical with telemetry on or off.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add applies a signed delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// LatencyBuckets is the default histogram bound set for Span durations:
// exponential nanosecond bounds from 1µs to 16s (everything slower lands
// in the overflow bucket).
var LatencyBuckets = []int64{
	1_000, 4_000, 16_000, 64_000, 256_000, // 1µs .. 256µs
	1_000_000, 4_000_000, 16_000_000, 64_000_000, 256_000_000, // 1ms .. 256ms
	1_000_000_000, 4_000_000_000, 16_000_000_000, // 1s .. 16s
}

// Histogram is a fixed-bucket histogram of int64 samples (nanoseconds
// for latency, plain units otherwise). Bounds are upper-inclusive and
// fixed at creation; one overflow bucket catches everything above the
// last bound. All methods are safe for concurrent use and no-ops on a
// nil receiver.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Int64
	n      atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	cp := append([]int64(nil), bounds...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return &Histogram{bounds: cp, counts: make([]atomic.Int64, len(cp)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of samples (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all samples (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Span times one stage or phase: created by Registry.StartSpan, closed
// with End, which records the elapsed wall-clock time into the span's
// histogram. The zero Span (from a nil registry) is a no-op that never
// reads the clock.
type Span struct {
	h     *Histogram
	start time.Time
}

// End records the elapsed time since StartSpan. Safe to call on the
// zero Span.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(int64(time.Since(s.start)))
}

// Registry is a concurrency-safe, name-addressed set of instruments.
// The zero value is NOT usable — construct with New. A nil *Registry is
// the documented off-switch: every lookup returns a nil instrument and
// every nil instrument is a no-op.
//
// A Registry is a view onto a shared instrument space: Namespace
// returns a derived view that prepends a prefix to every instrument
// name, so several tenants (e.g. the groups of a grouphost soak) can
// report into one space without colliding on names. All views share one
// lock and one Snapshot.
type Registry struct {
	prefix string
	st     *registryState
}

// registryState is the instrument space shared by a registry and every
// namespaced view derived from it.
type registryState struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	prefixes map[string]struct{}
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{st: &registryState{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		prefixes: make(map[string]struct{}),
	}}
}

// Namespace returns a view of the registry that prepends prefix to
// every instrument name it creates or looks up. The view shares the
// parent's instrument space: Snapshot on any view exports every
// namespace, and two views with the same accumulated prefix address the
// same instruments. Namespacing composes — r.Namespace("a_").
// Namespace("b_") addresses "a_b_<name>". Nil-safe: a nil registry
// namespaces to nil, preserving the off-switch.
func (r *Registry) Namespace(prefix string) *Registry {
	if r == nil {
		return nil
	}
	v := &Registry{prefix: r.prefix + prefix, st: r.st}
	if v.prefix != "" {
		r.st.mu.Lock()
		r.st.prefixes[v.prefix] = struct{}{}
		r.st.mu.Unlock()
	}
	return v
}

// Prefixes lists every accumulated namespace prefix ever derived from
// this registry's shared space, sorted. The Prometheus exposition layer
// uses these to turn per-tenant name prefixes back into group labels.
// Safe on a nil registry (returns nil).
func (r *Registry) Prefixes() []string {
	if r == nil {
		return nil
	}
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	out := make([]string, 0, len(r.st.prefixes))
	for p := range r.st.prefixes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry. Hoist the returned pointer
// out of hot loops: lookup takes the registry lock, updates are lock-free.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	c, ok := r.st.counters[name]
	if !ok {
		c = &Counter{}
		r.st.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	g, ok := r.st.gauges[name]
	if !ok {
		g = &Gauge{}
		r.st.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls reuse the first creation's bounds).
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	h, ok := r.st.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.st.hists[name] = h
	}
	return h
}

// StartSpan opens a wall-clock span that records into the histogram
// "<name>_ns" (LatencyBuckets bounds) when End is called. On a nil
// registry it returns the zero Span without reading the clock.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{h: r.Histogram(name+"_ns", LatencyBuckets), start: time.Now()}
}

// BucketCount is one histogram bucket in a snapshot: the count of
// samples at or below Upper (the overflow bucket has Upper = -1).
type BucketCount struct {
	Upper int64 `json:"upper"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// ValueSnapshot is the exported state of one counter or gauge.
type ValueSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time export of a registry, sorted by name so
// renderings are canonical. Note that histograms carrying wall-clock
// durations make a Snapshot nondeterministic by construction — it must
// never be written into an output the determinism tests compare.
type Snapshot struct {
	Counters   []ValueSnapshot     `json:"counters,omitempty"`
	Gauges     []ValueSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports the registry's current state — the full shared
// instrument space, regardless of which namespaced view it is called
// on. Safe on a nil registry (returns the zero Snapshot).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	var s Snapshot
	for name, c := range r.st.counters {
		s.Counters = append(s.Counters, ValueSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.st.gauges {
		s.Gauges = append(s.Gauges, ValueSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range r.st.hists {
		hs := HistogramSnapshot{Name: name, Count: h.Count(), Sum: h.Sum()}
		for i := range h.counts {
			n := h.counts[i].Load()
			if n == 0 {
				continue
			}
			upper := int64(-1)
			if i < len(h.bounds) {
				upper = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, BucketCount{Upper: upper, Count: n})
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
