package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var toySize = map[string]int{
	"daemon_udp_256":      16,
	"daemon_udp_256_loss": 16,
	"keyplane_100k":       2000,
	"sim_4096":            128,
}

// TestSmoke runs every workload of BENCHMARK.json at toy size, end to
// end and traced, and holds the emitted metrics to the names and units
// the file declares.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(t *testing.T, want []specMetric, got metricSet, nonZero bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(got), len(want))
		}
		for _, sm := range want {
			m, ok := got[sm.Name]
			switch {
			case !nameRE.MatchString(sm.Name):
				t.Errorf("metric name %q is outside the contract's alphabet", sm.Name)
			case !ok:
				t.Errorf("metric %s is declared but not emitted", sm.Name)
			case m.Unit != sm.Unit:
				t.Errorf("metric %s has unit %q, declared %q", sm.Name, m.Unit, sm.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("metric %s is not finite: %v", sm.Name, m.Value)
			case nonZero && m.Value <= 0:
				t.Errorf("end-to-end metric %s reads %v", sm.Name, m.Value)
			}
		}
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			c := config{n: toySize[w.name], seed: 7, intervals: 6, setups: 1}
			out, err := runUntraced(w, c)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted < 1 {
				t.Errorf("untraced run: %d of %d members ended an interval unkeyed", out.failed, out.attempted)
			}
			check(t, spec.EndToEnd, out.metrics, true)

			out, err = runTraced(w, c)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted < 1 {
				t.Errorf("traced run: %d of %d members ended an interval unkeyed", out.failed, out.attempted)
			}
			check(t, spec.PerLayer, out.metrics, false)
			if got := out.metrics["multicast_share"].Value; !strings.HasSuffix(w.name, "_loss") && got != 1 {
				t.Errorf("multicast_share = %v on a clean workload", got)
			}
			if w.name == "sim_4096" || w.name == "keyplane_100k" {
				if got := out.metrics["trace_self_share"].Value; got < 0.85 || got > 1 {
					t.Errorf("layer self times cover %.2f of the traced interval time, want within 15%%", got)
				}
			}
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			if err := out.trace.writeJSONL(path); err != nil {
				t.Fatal(err)
			}
			if b, err := os.ReadFile(path); err != nil || !bytes.Contains(b, []byte(`"name":"interval"`)) {
				t.Errorf("trace file has no interval span (read error %v)", err)
			}
		})
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(values, n=4): [2.75, 5.5, 8.25] for 1..10.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "interval_ms_p50", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "members_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		sm   specMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower", lower, steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{"lower throughput", higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{"wide spread", lower, steady, []float64{70, 100, 130, 95, 105}, "unresolved"},
		{"wide but all better", lower, steady, []float64{40, 60, 80, 50, 70}, "ok"},
	} {
		if got, _ := verdict(tc.sm, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
