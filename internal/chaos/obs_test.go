package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"tmesh/internal/obs"
)

// smallConfig is a fast soak for the telemetry tests: every fault class
// stays enabled, loss forces the ladder past rung 1 so the recovery
// counters are non-trivial.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Intervals = 6
	cfg.InitialMembers = 80
	cfg.HopLoss = 0.15
	return cfg
}

// TestSoakTelemetryDoesNotPerturbReport: attaching a registry and a sink
// must not change a single byte of the soak report — telemetry reads the
// simulation, never the other way round.
func TestSoakTelemetryDoesNotPerturbReport(t *testing.T) {
	plain := runSoak(t, smallConfig(21))

	cfg := smallConfig(21)
	cfg.Obs = obs.New()
	var buf bytes.Buffer
	cfg.Sink = obs.NewSink(&buf)
	instrumented := runSoak(t, cfg)

	if plain.String() != instrumented.String() {
		t.Errorf("telemetry perturbed the report:\n--- off ---\n%s\n--- on ---\n%s",
			plain.String(), instrumented.String())
	}

	// Guard against a vacuously green test: the instruments must have
	// actually fired.
	snap := cfg.Obs.Snapshot()
	counters := make(map[string]int64, len(snap.Counters))
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"chaos_audit_pass_coverage",
		"recovery_rung_multicast",
		"recovery_unicast_attempts",
		"keytree_regen_subtrees",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %s never fired; instrumentation is not wired", name)
		}
	}
	hists := make(map[string]int64, len(snap.Histograms))
	for _, h := range snap.Histograms {
		hists[h.Name] = h.Count
	}
	for _, name := range []string{"chaos_rekey_ns", "chaos_deliver_ns", "chaos_audit_ns", "chaos_inject_ns"} {
		if hists[name] == 0 {
			t.Errorf("span histogram %s has no samples", name)
		}
	}
	if buf.Len() == 0 {
		t.Fatal("sink received no interval records")
	}
}

// TestSoakSinkStreamDeterministic: two same-seed soaks must emit
// byte-identical JSONL streams, each line valid JSON with strictly
// increasing interval numbers.
func TestSoakSinkStreamDeterministic(t *testing.T) {
	emit := func() string {
		cfg := smallConfig(22)
		cfg.Obs = obs.New()
		var buf bytes.Buffer
		cfg.Sink = obs.NewSink(&buf)
		runSoak(t, cfg)
		if err := cfg.Sink.Err(); err != nil {
			t.Fatalf("sink error: %v", err)
		}
		return buf.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Errorf("same-seed sink streams diverged:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}

	// The stream interleaves one "interval" record and one "slo" record
	// per boundary; both sequences must be complete and strictly ordered.
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	want := smallConfig(22).Intervals
	intervals, slos := 0, 0
	lastInterval, lastBoundary := 0, 0
	for i, line := range lines {
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &kind); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
		switch kind.Kind {
		case "interval":
			var ev intervalEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("line %d: %v", i+1, err)
			}
			if ev.Index <= lastInterval {
				t.Errorf("line %d: interval %d not strictly after %d", i+1, ev.Index, lastInterval)
			}
			lastInterval = ev.Index
			intervals++
		case "slo":
			var ev struct {
				Group    string `json:"group"`
				Boundary int    `json:"boundary"`
				Verdict  string `json:"verdict"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("line %d: %v", i+1, err)
			}
			if ev.Group != "chaos" {
				t.Errorf("line %d: slo group = %q, want chaos", i+1, ev.Group)
			}
			if ev.Boundary <= lastBoundary {
				t.Errorf("line %d: slo boundary %d not strictly after %d", i+1, ev.Boundary, lastBoundary)
			}
			lastBoundary = ev.Boundary
			switch ev.Verdict {
			case "ok", "warn", "page":
			default:
				t.Errorf("line %d: slo verdict = %q", i+1, ev.Verdict)
			}
			slos++
		default:
			t.Errorf("line %d: unexpected kind %q", i+1, kind.Kind)
		}
	}
	if intervals != want {
		t.Errorf("got %d interval records, want %d", intervals, want)
	}
	if slos != want {
		t.Errorf("got %d slo records, want %d", slos, want)
	}
}

// TestIntervalRecordGolden pins the -metrics-out interval record byte
// for byte — field names, order, omitted-when-false flags, nanosecond
// durations — against the first record of `rekeysim -soak -seed 1
// -soak-intervals 6 -soak-members 100 -metrics-out` as emitted before
// IntervalStats carried the JSON tags itself.
func TestIntervalRecordGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/interval1.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.Intervals = 6
	cfg.InitialMembers = 100
	cfg.Obs = obs.New()
	var buf bytes.Buffer
	cfg.Sink = obs.NewSink(&buf)
	runSoak(t, cfg)
	got, _, _ := strings.Cut(buf.String(), "\n")
	if got+"\n" != string(want) {
		t.Errorf("first interval record drifted:\n got %s\nwant %s", got, want)
	}
}
