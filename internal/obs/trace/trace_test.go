package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/obs"
)

// TestNilSafety: the off-by-default contract — a nil recorder hands out
// nil traces, and every method on them is a no-op.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	if err := r.Err(); err != nil {
		t.Errorf("nil recorder Err = %v", err)
	}
	tr := r.Begin("rekey", 1, 0, "per-encryption", nil)
	if tr != nil {
		t.Fatal("nil recorder minted a non-nil trace")
	}
	if tr.ID() != "" {
		t.Errorf("nil trace ID = %q", tr.ID())
	}
	tr.Member(ident.ID{})
	if span := tr.Hop(Hop{}); span != 0 {
		t.Errorf("nil trace Hop span = %d, want 0", span)
	}
	tr.Unicast(ident.ID{}, 1, 0, 0, false, 1)
	tr.Resync(ident.ID{}, 0, 0, 1)
	tr.End(nil, true)
}

// TestDeterministicIDs: trace IDs derive from (label, seed, sequence)
// only, so same-seed recorders mint identical IDs and different seeds
// diverge.
func TestDeterministicIDs(t *testing.T) {
	mint := func(seed int64) []string {
		r := NewRecorder(seed, nil)
		var ids []string
		for i := 0; i < 3; i++ {
			ids = append(ids, r.Begin("rekey", i+1, 0, "", nil).ID())
		}
		ids = append(ids, r.Begin("data", 4, 0, "", nil).ID())
		return ids
	}
	a, b := mint(42), mint(42)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same-seed trace ID %d diverged: %s vs %s", i, a[i], b[i])
		}
	}
	c := mint(43)
	if a[0] == c[0] {
		t.Errorf("different seeds minted the same trace ID %s", a[0])
	}
	seen := map[string]bool{}
	for _, id := range a {
		if seen[id] {
			t.Errorf("duplicate trace ID %s within one recorder", id)
		}
		seen[id] = true
	}
}

// TestSinkErrorSurfaces: a failing sink writer surfaces through
// Recorder.Err.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestSinkErrorSurfaces(t *testing.T) {
	r := NewRecorder(1, obs.NewSink(failWriter{}))
	r.Begin("data", 1, 0, "", nil)
	if err := r.Err(); err == nil {
		t.Fatal("recorder swallowed the sink write error")
	}
}

// TestConcurrentHopEmission drives hop emission from a worker pool the
// way the pipeline's deliver stage would, under -race, and checks that
// every span survives uniquely in the stream.
func TestConcurrentHopEmission(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(7, obs.NewSink(&buf))
	tr := r.Begin("rekey", 1, 0, "per-encryption", []string{"[]"})

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Hop(Hop{
					To:      ident.MustNew(ident.Params{Digits: 2, Base: 256}, []ident.Digit{w, i}),
					Level:   1,
					Subtree: ident.MustNew(ident.Params{Digits: 2, Base: 256}, []ident.Digit{w, i}).Prefix(1),
					Encs:    1,
					Sent:    time.Duration(i),
					Recv:    time.Duration(i + 1),
					Items:   []string{"[]"},
				})
			}
		}(w)
	}
	wg.Wait()
	if err := r.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}

	records, err := ParseRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := workers*perWorker + 1 // hops + opening trace record
	if len(records) != want {
		t.Fatalf("stream has %d records, want %d", len(records), want)
	}
	spans := map[int64]bool{}
	for _, rec := range records {
		if rec.Kind != "hop" {
			continue
		}
		if rec.Span <= 0 || spans[rec.Span] {
			t.Fatalf("span %d is non-positive or repeated", rec.Span)
		}
		spans[rec.Span] = true
	}
	if len(spans) != workers*perWorker {
		t.Fatalf("%d unique spans, want %d", len(spans), workers*perWorker)
	}
}
