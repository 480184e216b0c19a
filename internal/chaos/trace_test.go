package chaos

import (
	"bytes"
	"testing"

	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
	"tmesh/internal/recovery"
)

// TestSoakTracingDoesNotPerturbReport: the flight recorder must read the
// simulation without steering it — same seed, same report, byte for
// byte, tracing on or off — and every recorded trace must pass its own
// audit and the auditors, through TraceEvidence, even under 15% hop
// loss.
func TestSoakTracingDoesNotPerturbReport(t *testing.T) {
	plain := runSoak(t, smallConfig(31))

	cfg := smallConfig(31)
	var buf bytes.Buffer
	cfg.TraceSink = obs.NewSink(&buf)
	traced := runSoak(t, cfg)
	if err := cfg.TraceSink.Err(); err != nil {
		t.Fatalf("trace sink error: %v", err)
	}

	if plain.String() != traced.String() {
		t.Errorf("tracing perturbed the report:\n--- off ---\n%s\n--- on ---\n%s",
			plain.String(), traced.String())
	}

	records, err := trace.ParseRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	groups := trace.Groups(records)
	// Every interval opens a data and a rekey trace.
	if want := 2 * cfg.Intervals; len(groups) != want {
		t.Fatalf("recorded %d traces, want %d", len(groups), want)
	}
	var rekeyHops, drops, recoveries, offMulticast, lostCopies int
	for _, g := range groups {
		a := g.Audit()
		for _, c := range a.Checks {
			for _, v := range c.Violations {
				t.Errorf("%s %s: %s", a.ID, c.Name, v)
			}
		}
		ev, err := TraceEvidence(g)
		if err != nil {
			t.Fatal(err)
		}
		verdicts, _ := Audit(ev, nil)
		for _, v := range verdicts {
			if line := v.Line(); line != "" {
				t.Errorf("%s %s", a.ID, line)
			}
		}
		for _, cp := range ev.Copies {
			if cp.N == 0 {
				lostCopies++
			}
		}
		if a.Label == "rekey" {
			rekeyHops += a.Hops
			recoveries += a.Unicasts + a.Resyncs
			// Guard the adapter against leaving the theorem evidence nil.
			if len(ev.Hops) == 0 || ev.Message == nil || ev.Ladder == nil {
				t.Errorf("%s: evidence has %d hops, message set %v, ladder set %v",
					a.ID, len(ev.Hops), ev.Message != nil, ev.Ladder != nil)
			} else {
				rungs := ev.Ladder.Rungs()
				offMulticast += rungs[recovery.ByUnicast] + rungs[recovery.ByResync]
			}
		}
		drops += a.DroppedHops
	}
	// Guard against a vacuously green audit: with 15% hop loss the
	// recorder must have seen real hops, real drops, and the ladder
	// repairing the holes.
	if rekeyHops == 0 {
		t.Error("no rekey hops recorded")
	}
	if drops == 0 {
		t.Error("no dropped hops recorded despite 15% hop loss")
	}
	if recoveries == 0 {
		t.Error("no ladder recoveries recorded despite 15% hop loss")
	}
	if offMulticast == 0 {
		t.Error("the evidence settled nobody beyond the multicast rung despite 15% hop loss")
	}
	if lostCopies == 0 {
		t.Error("the evidence counts no member without a copy despite 15% hop loss")
	}
}

// TestSoakTraceStreamDeterministic: same seed, same trace stream, byte
// for byte — trace IDs, spans, and sim-times are all seed-derived.
func TestSoakTraceStreamDeterministic(t *testing.T) {
	emit := func(sample int) string {
		cfg := smallConfig(32)
		cfg.TraceSample = sample
		var buf bytes.Buffer
		cfg.TraceSink = obs.NewSink(&buf)
		runSoak(t, cfg)
		if err := cfg.TraceSink.Err(); err != nil {
			t.Fatalf("trace sink error: %v", err)
		}
		return buf.String()
	}
	a, b := emit(1), emit(1)
	if a != b {
		t.Error("same-seed trace streams diverged")
	}

	countTraces := func(stream string) int {
		records, err := trace.ParseRecords(bytes.NewReader([]byte(stream)))
		if err != nil {
			t.Fatal(err)
		}
		return len(trace.Groups(records))
	}
	full, sampled := countTraces(a), countTraces(emit(2))
	// Sampling every 2nd interval records intervals 1, 3, 5 of 6.
	if want := full / 2; sampled != want {
		t.Errorf("TraceSample=2 recorded %d traces, want %d (of %d)", sampled, want, full)
	}
}
