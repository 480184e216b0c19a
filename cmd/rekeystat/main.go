// Command rekeystat is the live status view over the rekey ops plane:
// it polls a /metrics endpoint (rekeysim -soak -pprof, or the rekeyd
// daemon soak) or reads a telemetry JSONL stream, and renders one line
// per group — members, last rekey latency, SLO verdict, and the ladder
// rung counts — so an operator watching a soak sees per-tenant health
// without grepping raw exposition text.
//
// Usage:
//
//	rekeystat -metrics http://127.0.0.1:6060/metrics [-interval SECONDS]
//	rekeystat -jsonl soak.jsonl [-interval SECONDS]
//
// With -interval N the view refreshes every N seconds until
// interrupted; the default prints one snapshot and exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"tmesh/internal/obs/expose"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("rekeystat", flag.ContinueOnError)
	metrics := fs.String("metrics", "", "poll this Prometheus exposition URL")
	jsonl := fs.String("jsonl", "", "read this telemetry JSONL stream")
	interval := fs.Int("interval", 0, "refresh every N seconds (0 = print once)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*metrics == "") == (*jsonl == "") {
		fmt.Fprintln(os.Stderr, "rekeystat: exactly one of -metrics or -jsonl is required")
		fs.Usage()
		return 2
	}
	for {
		var stats []groupStat
		var err error
		if *metrics != "" {
			stats, err = statsFromMetricsURL(*metrics)
		} else {
			stats, err = statsFromJSONLFile(*jsonl)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rekeystat:", err)
			return 1
		}
		renderGroups(out, stats)
		if *interval <= 0 {
			return 0
		}
		time.Sleep(time.Duration(*interval) * time.Second)
	}
}

// groupStat is one rendered row: the per-group health view assembled
// from either exposition series or JSONL records.
type groupStat struct {
	Group                      string
	Members                    int64
	P95MS                      float64 // last rekey key-delivery p95
	RekeyCost                  int64
	Verdict                    string // last boundary's worst-objective verdict
	OK, Warn, Page             int64  // boundary verdict totals
	Multicast, Unicast, Resync int64  // ladder rung counts
}

func verdictName(v int64) string {
	switch v {
	case 0:
		return "ok"
	case 1:
		return "warn"
	case 2:
		return "page"
	}
	return "?"
}

// renderGroups prints the table, one line per group, sorted by name.
func renderGroups(w io.Writer, stats []groupStat) {
	sort.Slice(stats, func(i, j int) bool { return stats[i].Group < stats[j].Group })
	fmt.Fprintf(w, "%-12s %9s %10s %9s %-7s %-14s %s\n",
		"GROUP", "MEMBERS", "P95(ms)", "COST", "SLO", "OK/WARN/PAGE", "RUNGS mc/uc/rs")
	for _, s := range stats {
		name := s.Group
		if name == "" {
			name = "(all)"
		}
		fmt.Fprintf(w, "%-12s %9d %10.1f %9d %-7s %d/%d/%d %10d/%d/%d\n",
			name, s.Members, s.P95MS, s.RekeyCost, s.Verdict,
			s.OK, s.Warn, s.Page, s.Multicast, s.Unicast, s.Resync)
	}
	if len(stats) == 0 {
		fmt.Fprintln(w, "(no slo series yet)")
	}
}

// --- Prometheus exposition source -----------------------------------

// statsFromSeries folds exposition samples into per-group rows. The
// slo_* instruments carry the SLO engine's last-boundary state; the
// recovery_rung_* counters carry the ladder escalation history.
func statsFromSeries(all []expose.Sample) []groupStat {
	byGroup := map[string]*groupStat{}
	get := func(labels map[string]string) *groupStat {
		g := labels["group"]
		st, ok := byGroup[g]
		if !ok {
			st = &groupStat{Group: g, Verdict: "-"}
			byGroup[g] = st
		}
		return st
	}
	for _, s := range all {
		switch s.Name {
		case "slo_members":
			get(s.Labels).Members = int64(s.Value)
		case "slo_latency_p95_us":
			get(s.Labels).P95MS = s.Value / 1000
		case "slo_rekey_cost":
			get(s.Labels).RekeyCost = int64(s.Value)
		case "slo_verdict":
			get(s.Labels).Verdict = verdictName(int64(s.Value))
		case "slo_verdict_ok":
			get(s.Labels).OK = int64(s.Value)
		case "slo_verdict_warn":
			get(s.Labels).Warn = int64(s.Value)
		case "slo_verdict_page":
			get(s.Labels).Page = int64(s.Value)
		case "recovery_rung_multicast":
			get(s.Labels).Multicast = int64(s.Value)
		case "recovery_rung_unicast":
			get(s.Labels).Unicast = int64(s.Value)
		case "recovery_rung_resync":
			get(s.Labels).Resync = int64(s.Value)
		}
	}
	out := make([]groupStat, 0, len(byGroup))
	for _, st := range byGroup {
		// Drop groups that carried only rung counters and no SLO state:
		// those are shared-registry series with no tenant attribution.
		if st.Verdict == "-" && st.Members == 0 && st.OK+st.Warn+st.Page == 0 {
			continue
		}
		out = append(out, *st)
	}
	return out
}

func statsFromMetricsURL(url string) ([]groupStat, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	return statsFromSeries(expose.Parse(string(body))), nil
}
