package main

import (
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer as the harness saw it. Parent is the
// ID of the enclosing span, -1 for an interval root. Est marks a span
// whose duration was measured by a probe of the same call outside the
// interval and placed inside its parent (split.compile inside
// tmesh.multicast: split.Rekey compiles its index internally and this
// issue adds no span inside internal/).
type span struct {
	Workload string `json:"workload"`
	Interval int    `json:"interval"`
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Est      bool   `json:"est,omitempty"`
}

// tracer keeps spans in memory. A nil tracer records nothing, which is
// how the untraced run executes the same workload code. begin/end nest
// on the driver goroutine; add is safe from any goroutine.
type tracer struct {
	mu       sync.Mutex
	workload string
	origin   time.Time
	interval int
	spans    []span
	stack    []int
	allocs   map[string]uint64 // heap objects allocated inside callCounted, by span name
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), allocs: make(map[string]uint64)}
}

// begin opens a span under the driver's current span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Workload: t.workload, Interval: t.interval, ID: id, Name: name, StartNS: now, Parent: parent})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

// end closes the span begin returned and reports its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.stack = t.stack[:len(t.stack)-1]
	d := now - t.spans[id].StartNS
	t.mu.Unlock()
	return time.Duration(d)
}

// call runs f on the driver goroutine under a span.
func (t *tracer) call(name string, f func()) time.Duration {
	if t == nil {
		f()
		return 0
	}
	id := t.begin(name)
	f()
	return t.end(id)
}

// callCounted is call that also charges the heap objects f allocated to
// the span's name. Reading the counter stops the world, so it is kept
// to the few calls per interval whose allocations are a metric.
func (t *tracer) callCounted(name string, f func()) time.Duration {
	if t == nil {
		f()
		return 0
	}
	a0 := mallocs()
	d := t.call(name, f)
	a1 := mallocs()
	t.mu.Lock()
	t.allocs[name] += a1 - a0
	t.mu.Unlock()
	return d
}

// current is the driver's innermost open span, -1 when none.
func (t *tracer) current() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// add records a finished span under an explicit parent.
func (t *tracer) add(name string, start, end time.Time, parent int, est bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if parent >= len(t.spans) { // opened before a reset
		t.mu.Unlock()
		return
	}
	interval := t.interval
	if parent >= 0 {
		interval = t.spans[parent].Interval
	}
	t.spans = append(t.spans, span{Workload: t.workload, Interval: interval, ID: len(t.spans), Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(), Parent: parent, Est: est})
	t.mu.Unlock()
}

// addEstimatedChild places a probe-measured duration at the start of an
// already closed span.
func (t *tracer) addEstimatedChild(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	t.mu.Unlock()
	start := t.origin.Add(time.Duration(p.StartNS))
	if max := time.Duration(p.EndNS - p.StartNS); d > max {
		d = max
	}
	t.add(name, start, start.Add(d), parent, true)
}

// reset drops every span recorded so far (a warm-up's), between
// intervals when the driver has no span open.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.stack, t.interval = nil, nil, 0
	t.allocs = make(map[string]uint64)
	t.mu.Unlock()
}

func (t *tracer) nextInterval() {
	if t != nil {
		t.mu.Lock()
		t.interval++
		t.mu.Unlock()
	}
}

// durations lists the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}

// layerOf is the package a span name belongs to ("keytree.mark" →
// "keytree"); the interval root belongs to the harness.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "harness"
}

// ledger sums self time per layer over all intervals: a span's self
// time is its duration minus the part its children cover (children of
// one parent may overlap when they ran on different goroutines, so the
// covered part is the union). It returns the per-layer totals and the
// summed interval time.
func (t *tracer) ledger() (self map[string]time.Duration, total time.Duration) {
	self = make(map[string]time.Duration)
	if t == nil {
		return self, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for _, s := range t.spans {
		if s.Parent < 0 {
			total += time.Duration(s.EndNS - s.StartNS)
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return t.spans[kids[i]].StartNS < t.spans[kids[j]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := t.spans[k].StartNS, t.spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[layerOf(s.Name)] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self, total
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeLines(f, len(t.spans), func(i int) any { return &t.spans[i] })
}
