// Command jsonlcheck sanity-checks a telemetry JSONL file produced by
// `rekeysim -soak -metrics-out`: every line must be valid JSON, records
// of kind "interval" must carry strictly increasing interval numbers,
// and records of kind "slo" must carry a group, a known verdict,
// strictly increasing per-group boundary numbers, and objectives whose
// good count never exceeds the total. Flight-recorder streams
// (`-trace-out`) are cmd/traceaudit's to check. Exit status 0 on a clean
// file, 1 on any violation.
//
// Usage: jsonlcheck <file.jsonl>
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: jsonlcheck <file.jsonl>")
		return 2
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsonlcheck:", err)
		return 2
	}
	defer f.Close()

	var (
		lines, intervals, sloRecs int
		lastInterval              = 0
		bad                       int
	)
	complain := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "jsonlcheck: line %d: "+format+"\n", append([]any{lines}, a...)...)
		bad++
	}
	// lastBoundary tracks, per SLO group, the last boundary number, so
	// per-tenant slo streams interleaved by the multi-group host are
	// still checkable for strict ordering.
	lastBoundary := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		lines++
		var rec struct {
			Kind       string `json:"kind"`
			Interval   int    `json:"interval"`
			Group      string `json:"group"`
			Boundary   int    `json:"boundary"`
			Verdict    string `json:"verdict"`
			Objectives []struct {
				Name    string  `json:"name"`
				Good    int64   `json:"good"`
				Total   int64   `json:"total"`
				Target  float64 `json:"target"`
				Verdict string  `json:"verdict"`
			} `json:"objectives"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			complain("invalid JSON: %v", err)
			continue
		}
		switch rec.Kind {
		case "interval":
			intervals++
			if rec.Interval <= lastInterval {
				complain("interval %d not greater than previous %d", rec.Interval, lastInterval)
			}
			lastInterval = rec.Interval
		case "slo":
			sloRecs++
			if rec.Group == "" {
				complain("slo record without group")
			}
			if rec.Verdict != "ok" && rec.Verdict != "warn" && rec.Verdict != "page" {
				complain("slo record with verdict %q", rec.Verdict)
			}
			if rec.Boundary <= lastBoundary[rec.Group] {
				complain("slo boundary %d for group %q not greater than previous %d",
					rec.Boundary, rec.Group, lastBoundary[rec.Group])
			}
			lastBoundary[rec.Group] = rec.Boundary
			if len(rec.Objectives) == 0 {
				complain("slo record without objectives")
			}
			for _, o := range rec.Objectives {
				if o.Name == "" {
					complain("slo objective without name")
				}
				if o.Good > o.Total || o.Good < 0 {
					complain("slo objective %q good=%d exceeds total=%d", o.Name, o.Good, o.Total)
				}
				if o.Target <= 0 || o.Target > 1 {
					complain("slo objective %q target=%g outside (0,1]", o.Name, o.Target)
				}
				if o.Verdict != "ok" && o.Verdict != "warn" && o.Verdict != "page" {
					complain("slo objective %q with verdict %q", o.Name, o.Verdict)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "jsonlcheck:", err)
		return 2
	}
	if intervals == 0 && sloRecs == 0 {
		fmt.Fprintln(os.Stderr, "jsonlcheck: no interval or slo records found")
		bad++
	}
	if bad > 0 {
		return 1
	}
	fmt.Printf("jsonlcheck: %s ok (%d lines, %d interval records, %d slo records)\n",
		args[0], lines, intervals, sloRecs)
	return 0
}
