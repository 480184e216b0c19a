package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsNoOp is the off-by-default contract: every operation
// on a nil registry and its nil instruments must be a safe no-op.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter accumulated a value")
	}
	g := r.Gauge("g")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge accumulated a value")
	}
	h := r.Histogram("h", LatencyBuckets)
	h.Observe(7)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram accumulated samples")
	}
	sp := r.StartSpan("s")
	sp.End() // must not panic
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry produced a non-empty snapshot")
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Inc()
	c.Add(2)
	if got := r.Counter("events").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 555 {
		t.Errorf("histogram count=%d sum=%d, want 3/555", h.Count(), h.Sum())
	}

	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "events" || snap.Counters[0].Value != 3 {
		t.Errorf("counter snapshot wrong: %+v", snap.Counters)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", snap.Histograms)
	}
	hs := snap.Histograms[0]
	// One sample per bucket: <=10, <=100, overflow (-1).
	want := []BucketCount{{Upper: 10, Count: 1}, {Upper: 100, Count: 1}, {Upper: -1, Count: 1}}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", hs.Buckets, want)
	}
	for i := range want {
		if hs.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, hs.Buckets[i], want[i])
		}
	}
}

func TestSpanRecordsIntoHistogram(t *testing.T) {
	r := New()
	sp := r.StartSpan("stage")
	sp.End()
	h := r.Histogram("stage_ns", LatencyBuckets)
	if h.Count() != 1 {
		t.Fatalf("span recorded %d samples, want 1", h.Count())
	}
	if h.Sum() < 0 {
		t.Errorf("span recorded negative duration %d", h.Sum())
	}
}

// TestConcurrentUpdates hammers one counter, gauge, and histogram from
// many goroutines; run under -race this is the data-race guard for the
// regen/apply worker pools that share a registry.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("level")
			h := r.Histogram("obs", LatencyBuckets)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i * w))
				if i%100 == 0 {
					sp := r.StartSpan("loop")
					sp.End()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("obs", nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestNamespaceKeepsTenantsDistinct is the multi-group regression: two
// groups reporting through namespaced views of one registry must land
// on distinct, correctly-summed instruments, while two views with the
// same prefix share them.
func TestNamespaceKeepsTenantsDistinct(t *testing.T) {
	root := New()
	g0 := root.Namespace("g000_")
	g1 := root.Namespace("g001_")

	g0.Counter("core_mark").Add(3)
	g1.Counter("core_mark").Add(5)
	g0.Counter("core_mark").Inc() // second lookup, same instrument

	if got := g0.Counter("core_mark").Value(); got != 4 {
		t.Errorf("g0 counter = %d, want 4", got)
	}
	if got := g1.Counter("core_mark").Value(); got != 5 {
		t.Errorf("g1 counter = %d, want 5", got)
	}

	g0.Histogram("apply", []int64{10}).Observe(1)
	g1.Histogram("apply", []int64{10}).Observe(1)
	g1.Histogram("apply", []int64{10}).Observe(1)

	snap := root.Snapshot()
	counters := make(map[string]int64)
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["g000_core_mark"] != 4 || counters["g001_core_mark"] != 5 {
		t.Errorf("snapshot counters = %v, want g000_core_mark=4 g001_core_mark=5", counters)
	}
	if _, collided := counters["core_mark"]; collided {
		t.Error("unprefixed name leaked into the shared space")
	}
	hists := make(map[string]int64)
	for _, h := range snap.Histograms {
		hists[h.Name] = h.Count
	}
	if hists["g000_apply"] != 1 || hists["g001_apply"] != 2 {
		t.Errorf("snapshot histograms = %v, want g000_apply=1 g001_apply=2", hists)
	}

	// Snapshot is the same full space from any view.
	if viewSnap := g1.Snapshot(); len(viewSnap.Counters) != len(snap.Counters) {
		t.Errorf("view snapshot has %d counters, root has %d", len(viewSnap.Counters), len(snap.Counters))
	}

	// Namespacing composes and preserves the nil off-switch.
	root.Namespace("a_").Namespace("b_").Counter("x").Inc()
	if root.Counter("a_b_x").Value() != 1 {
		t.Error("composed namespace did not address a_b_x")
	}
	var nilReg *Registry
	if nilReg.Namespace("g_") != nil {
		t.Error("nil registry namespaced to a non-nil view")
	}
	nilReg.Namespace("g_").Counter("c").Inc() // must not panic
}

// TestNamespaceSpans pins span naming under a namespace: the histogram
// lands at <prefix><name>_ns.
func TestNamespaceSpans(t *testing.T) {
	root := New()
	sp := root.Namespace("g7_").StartSpan("rekey")
	sp.End()
	if got := root.Histogram("g7_rekey_ns", LatencyBuckets).Count(); got != 1 {
		t.Fatalf("namespaced span recorded %d samples at g7_rekey_ns, want 1", got)
	}
}

func TestSinkEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.Emit(map[string]any{"kind": "interval", "interval": 1})
	s.Emit(struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}{"metrics", 7})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("emitted %d lines, want 2", len(lines))
	}
	for i, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Errorf("line %d is not valid JSON: %q", i, ln)
		}
	}

	var nilSink *Sink
	nilSink.Emit("ignored") // must not panic
	if nilSink.Err() != nil {
		t.Error("nil sink reported an error")
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestSinkKeepsFirstError(t *testing.T) {
	want := errors.New("disk gone")
	s := NewSink(failWriter{err: want})
	s.Emit("a")
	s.Emit("b")
	if got := s.Err(); !errors.Is(got, want) {
		t.Fatalf("Err() = %v, want %v", got, want)
	}
}
