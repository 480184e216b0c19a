// Command traceaudit machine-checks a flight-recorder trace produced by
// `rekeysim soak -trace-out` (or any internal/obs/trace stream).
//
// Usage:
//
//	traceaudit <trace.jsonl>
//
// For every trace in the stream it checks the records against
// themselves (schema, causal stream order, forwarding-level
// monotonicity), then builds the chaos auditors' evidence from them
// (chaos.TraceEvidence) and runs chaos.Audit, the same Theorem 1,
// Theorem 2 and Lemma 3 checks every soak plane runs. An auditor the
// trace gives nothing to read prints n/a. It prints a '#'-comment
// summary per trace plus a per-forwarding-level TSV (hop counts and
// sim-time latency distributions, the Fig. 6/8-style series). Exit
// status: 0 all checks green, 1 any violation, 2 usage, I/O or bad IDs.
package main

import (
	"fmt"
	"io"
	"os"

	"tmesh/internal/chaos"
	"tmesh/internal/obs/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(errOut, "usage: traceaudit <trace.jsonl>")
		return 2
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(errOut, "traceaudit:", err)
		return 2
	}
	defer f.Close()
	records, err := trace.ParseRecords(f)
	if err != nil {
		fmt.Fprintln(errOut, "traceaudit:", err)
		return 2
	}
	if len(records) == 0 {
		fmt.Fprintln(errOut, "traceaudit: no trace records in", args[0])
		return 2
	}
	groups := trace.Groups(records)
	evs := make([]*chaos.Evidence, len(groups))
	for i, g := range groups {
		if evs[i], err = chaos.TraceEvidence(g); err != nil {
			fmt.Fprintln(errOut, "traceaudit:", err)
			return 2
		}
	}

	violations := 0
	fmt.Fprintln(out, "trace\tlevel\thops\tdropped\tunits\tlatency_ms_mean\tlatency_ms_p95\tlatency_ms_max")
	for i, g := range groups {
		a := g.Audit()
		fmt.Fprintf(out, "# %s interval=%d mode=%s members=%d survivors=%d hops=%d dropped=%d duplicates=%d unicasts=%d resyncs=%d\n",
			a.ID, a.Interval, a.Mode, a.Members, a.Survivors, a.Hops, a.DroppedHops, a.Duplicates, a.Unicasts, a.Resyncs)
		// The trace's own checks first, then the theorems.
		var rows []chaos.Verdict
		for _, c := range a.Checks {
			rows = append(rows, chaos.Verdict{Name: c.Name, Violations: c.Violations})
		}
		verdicts, _ := chaos.Audit(evs[i], nil)
		for _, v := range append(rows, verdicts...) {
			switch {
			case len(v.Violations) > 0:
				violations += len(v.Violations)
				fmt.Fprintf(out, "#   %-20s FAIL (%d)\n", v.Name, len(v.Violations))
				for _, line := range v.Violations {
					fmt.Fprintf(out, "#     - %s\n", line)
				}
			case v.NA:
				fmt.Fprintf(out, "#   %-20s n/a\n", v.Name)
			default:
				fmt.Fprintf(out, "#   %-20s ok\n", v.Name)
			}
		}
		for _, ls := range a.Levels {
			fmt.Fprintf(out, "%s\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%.3f\n",
				a.ID, ls.Level, ls.Hops, ls.Dropped, ls.Units,
				float64(ls.LatencyMeanNS)/1e6, float64(ls.LatencyP95NS)/1e6, float64(ls.LatencyMaxNS)/1e6)
		}
	}
	if violations > 0 {
		fmt.Fprintf(errOut, "traceaudit: %d violation(s) across %d trace(s)\n", violations, len(groups))
		return 1
	}
	fmt.Fprintf(out, "# %d trace(s), all checks green\n", len(groups))
	return 0
}
