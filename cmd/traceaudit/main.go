// Command traceaudit machine-checks a flight-recorder trace produced by
// `rekeysim soak -trace-out` (or any internal/obs/trace stream).
//
// Usage:
//
//	traceaudit <trace.jsonl>
//
// For every trace in the stream it reconstructs the delivery tree from
// the hop records and verifies the paper's path theorems: causal stream
// order, forwarding-level monotonicity, Theorem 1 (exactly one copy per
// member), Theorem 2 (an encryption crosses a hop iff some downstream
// user needs it, by the ID-prefix test), and Lemma 3 slice coverage
// across the degradation ladder. It prints a '#'-comment summary per
// trace plus a per-forwarding-level TSV (hop counts and sim-time
// latency distributions, the Fig. 6/8-style series). Exit status: 0
// all checks green, 1 any violation, 2 usage or I/O trouble.
package main

import (
	"fmt"
	"os"

	"tmesh/internal/obs/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceaudit <trace.jsonl>")
		return 2
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceaudit:", err)
		return 2
	}
	defer f.Close()
	records, err := trace.ParseRecords(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceaudit:", err)
		return 2
	}
	if len(records) == 0 {
		fmt.Fprintln(os.Stderr, "traceaudit: no trace records in", args[0])
		return 2
	}
	audits, err := trace.AuditRecords(records)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceaudit:", err)
		return 2
	}

	violations := 0
	fmt.Fprintln(out, "trace\tlevel\thops\tdropped\tunits\tlatency_ms_mean\tlatency_ms_p95\tlatency_ms_max")
	for _, a := range audits {
		fmt.Fprintf(out, "# %s interval=%d mode=%s members=%d survivors=%d hops=%d dropped=%d duplicates=%d unicasts=%d resyncs=%d\n",
			a.ID, a.Interval, a.Mode, a.Members, a.Survivors, a.Hops, a.DroppedHops, a.Duplicates, a.Unicasts, a.Resyncs)
		for _, c := range a.Checks {
			if len(c.Violations) == 0 {
				fmt.Fprintf(out, "#   %-20s ok\n", c.Name)
				continue
			}
			violations += len(c.Violations)
			fmt.Fprintf(out, "#   %-20s FAIL (%d)\n", c.Name, len(c.Violations))
			for _, v := range c.Violations {
				fmt.Fprintf(out, "#     - %s\n", v)
			}
		}
		for _, ls := range a.Levels {
			fmt.Fprintf(out, "%s\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%.3f\n",
				a.ID, ls.Level, ls.Hops, ls.Dropped, ls.Units,
				float64(ls.LatencyMeanNS)/1e6, float64(ls.LatencyP95NS)/1e6, float64(ls.LatencyMaxNS)/1e6)
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "traceaudit: %d violation(s) across %d trace(s)\n", violations, len(audits))
		return 1
	}
	fmt.Fprintf(out, "# %d trace(s), all checks green\n", len(audits))
	return 0
}
