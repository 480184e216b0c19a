package slo

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"tmesh/internal/obs"
)

func healthy(n int) Boundary {
	return Boundary{
		Boundary: n, Members: 100, Expected: 100, Delivered: 100,
		LatenciesMS: []float64{1, 2, 3, 40, 120}, RekeyCost: 37,
	}
}

// TestHealthyBoundariesStayOK: a run with full delivery, no
// escalations, and in-budget latencies must close every boundary ok.
func TestHealthyBoundariesStayOK(t *testing.T) {
	e := New(Config{Group: "g"})
	for i := 1; i <= 30; i++ {
		rec := e.Observe(healthy(i))
		if rec.Verdict != "ok" {
			t.Fatalf("boundary %d verdict = %s, want ok\n%+v", i, rec.Verdict, rec.Objectives)
		}
		if rec.Kind != "slo" || rec.Group != "g" || rec.Boundary != i {
			t.Fatalf("record header wrong: %+v", rec)
		}
	}
	ok, warn, page := e.Totals()
	if ok != 30 || warn != 0 || page != 0 {
		t.Errorf("totals = %d/%d/%d, want 30/0/0", ok, warn, page)
	}
}

// TestDeliveryFailurePages: a surviving member without the key is a
// paper-invariant violation; the delivery objective must page at once
// (fast and slow windows both burn far past budget).
func TestDeliveryFailurePages(t *testing.T) {
	e := New(Config{Group: "g"})
	b := healthy(1)
	b.Delivered = 90
	rec := e.Observe(b)
	if rec.Verdict != "page" {
		t.Fatalf("verdict = %s, want page\n%+v", rec.Verdict, rec.Objectives)
	}
	if rec.Objectives[0].Name != "delivery" || rec.Objectives[0].Verdict != "page" {
		t.Errorf("delivery objective = %+v, want page", rec.Objectives[0])
	}
}

// TestSlowWindowGating: once the slow window holds enough healthy
// history, a short burst of moderately-bad boundaries warns (fast burn
// >= 1) without paging (slow window doesn't confirm).
func TestSlowWindowGating(t *testing.T) {
	e := New(Config{Group: "g"})
	for i := 1; i <= 18; i++ {
		e.Observe(healthy(i))
	}
	// Two boundaries at ladder err 0.80 vs budget 0.25: the fast window
	// (5) burns 160/500/0.25 = 1.28, the slow one (20) 160/2000/0.25 = 0.32.
	var rec Record
	for i := 19; i <= 20; i++ {
		b := healthy(i)
		b.Escalations = 80
		rec = e.Observe(b)
	}
	ladder := rec.Objectives[2]
	if ladder.Name != "ladder" {
		t.Fatalf("objective order changed: %+v", rec.Objectives)
	}
	if ladder.Verdict != "warn" || rec.Verdict != "warn" {
		t.Errorf("ladder = %s overall = %s, want warn/warn (burnFast=%.2f burnSlow=%.2f)",
			ladder.Verdict, rec.Verdict, ladder.BurnFast, ladder.BurnSlow)
	}
	if math.Abs(ladder.BurnFast-1.28) > 1e-9 || math.Abs(ladder.BurnSlow-0.32) > 1e-9 {
		t.Errorf("burnFast=%v burnSlow=%v, want 1.28 and 0.32", ladder.BurnFast, ladder.BurnSlow)
	}
}

// TestLatencyBudget: latencies above the budget burn the latency
// objective; within budget they don't.
func TestLatencyBudget(t *testing.T) {
	e := New(Config{Group: "g"})
	b := healthy(1)
	b.LatenciesMS = []float64{1, 2, 5001, 6000, 7000} // 3 of 5 over the 5000 ms budget
	rec := e.Observe(b)
	lat := rec.Objectives[1]
	if lat.Name != "latency" || lat.Good != 2 || lat.Total != 5 {
		t.Fatalf("latency objective = %+v, want good=2 total=5", lat)
	}
	if lat.Verdict != "page" {
		t.Errorf("latency verdict = %s, want page at 60%% error", lat.Verdict)
	}
}

// nearestRank is the p-th percentile of xs by the nearest-rank rule.
func nearestRank(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(p/100*float64(len(s))))-1, 0)]
}

// TestQuantilesAndInstruments: every record carries the exact
// nearest-rank p50/p95 of all latencies fed so far, and the live
// instruments land in the registry under the namespace.
func TestQuantilesAndInstruments(t *testing.T) {
	r := obs.New()
	e := New(Config{Group: "flash", Obs: r.Namespace("flash_")})
	var fed []float64
	for i := 1; i <= 10; i++ {
		b := healthy(i)
		for j := range b.LatenciesMS {
			b.LatenciesMS[j] += float64(i * i * (j + 3) % 97)
		}
		fed = append(fed, b.LatenciesMS...)
		rec := e.Observe(b)
		if p50, p95 := nearestRank(fed, 50), nearestRank(fed, 95); rec.LatencyP50MS != p50 || rec.LatencyP95MS != p95 {
			t.Errorf("boundary %d: p50=%v p95=%v, want nearest-rank %v and %v over %d latencies",
				i, rec.LatencyP50MS, rec.LatencyP95MS, p50, p95, len(fed))
		}
	}
	if got := r.Gauge("flash_slo_latency_p95_us").Value(); got != int64(nearestRank(fed, 95)*1000) {
		t.Errorf("flash_slo_latency_p95_us = %d, want %d", got, int64(nearestRank(fed, 95)*1000))
	}
	if got := r.Gauge("flash_slo_members").Value(); got != 100 {
		t.Errorf("flash_slo_members = %d, want 100", got)
	}
	if got := r.Counter("flash_slo_verdict_ok").Value(); got != 10 {
		t.Errorf("flash_slo_verdict_ok = %d, want 10", got)
	}
	if got := r.Gauge("flash_slo_verdict").Value(); got != 0 {
		t.Errorf("flash_slo_verdict = %d, want 0 (ok)", got)
	}
}

// TestDeterministicRecords: two engines fed the same boundaries emit
// byte-identical JSONL — the cross-width replay contract.
func TestDeterministicRecords(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		e := New(Config{Group: "g", Sink: obs.NewSink(&buf)})
		for i := 1; i <= 25; i++ {
			b := healthy(i)
			b.LatenciesMS = append(b.LatenciesMS, float64(i*7%200))
			if i%11 == 0 {
				b.Escalations = 5
				b.DeadInFlight = 1
			}
			e.Observe(b)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("same boundaries produced different SLO streams")
	}
	for _, line := range bytes.Split([]byte(a), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec["kind"] != "slo" {
			t.Fatalf("line kind = %v, want slo", rec["kind"])
		}
	}
}

// TestZeroEventObjectivesAreHealthy: a tenant with no transport and no
// recorded latencies must not burn those budgets (no events, no error).
func TestZeroEventObjectivesAreHealthy(t *testing.T) {
	e := New(Config{Group: "g"})
	rec := e.Observe(Boundary{Boundary: 1, Members: 10, Expected: 10, Delivered: 10})
	if rec.Verdict != "ok" {
		t.Fatalf("verdict = %s, want ok\n%+v", rec.Verdict, rec.Objectives)
	}
}
