package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// jsonlRecord is the union of the telemetry stream fields rekeystat
// reads: "slo" records carry the per-group verdict state, "interval"
// records (the single-group chaos stream) carry the ladder escalation
// counts. Other kinds — "metrics", trace records — are skipped.
type jsonlRecord struct {
	Kind         string  `json:"kind"`
	Interval     int     `json:"interval"`
	Group        string  `json:"group"`
	Boundary     int     `json:"boundary"`
	Members      int     `json:"members"`
	RekeyCost    int     `json:"rekey_cost"`
	LatencyP95MS float64 `json:"latency_p95_ms"`
	Verdict      string  `json:"verdict"`
	Objectives   []struct {
		Name    string  `json:"name"`
		Good    int64   `json:"good"`
		Total   int64   `json:"total"`
		Target  float64 `json:"target"`
		Verdict string  `json:"verdict"`
	} `json:"objectives"`

	KeyByMulticast int `json:"key_by_multicast"`
	KeyByUnicast   int `json:"key_by_unicast"`
	KeyByResync    int `json:"key_by_resync"`
}

func knownVerdict(v string) bool { return v == "ok" || v == "warn" || v == "page" }

// sloViolations lists the stream rules an slo record breaks, given the
// last boundary its group reported: the host interleaves tenants, so
// boundaries rise per group, not across the stream.
func (rec *jsonlRecord) sloViolations(lastBoundary int) []string {
	var bad []string
	if rec.Group == "" {
		bad = append(bad, "slo record without group")
	}
	if !knownVerdict(rec.Verdict) {
		bad = append(bad, fmt.Sprintf("slo record with verdict %q", rec.Verdict))
	}
	if rec.Boundary <= lastBoundary {
		bad = append(bad, fmt.Sprintf("slo boundary %d for group %q not greater than previous %d",
			rec.Boundary, rec.Group, lastBoundary))
	}
	if len(rec.Objectives) == 0 {
		bad = append(bad, "slo record without objectives")
	}
	for _, o := range rec.Objectives {
		if o.Name == "" {
			bad = append(bad, "slo objective without name")
		}
		if o.Good < 0 || o.Good > o.Total {
			bad = append(bad, fmt.Sprintf("slo objective %q good=%d outside [0, total=%d]", o.Name, o.Good, o.Total))
		}
		if o.Target <= 0 || o.Target > 1 {
			bad = append(bad, fmt.Sprintf("slo objective %q target=%g outside (0,1]", o.Name, o.Target))
		}
		if !knownVerdict(o.Verdict) {
			bad = append(bad, fmt.Sprintf("slo objective %q with verdict %q", o.Name, o.Verdict))
		}
	}
	return bad
}

// statsFromJSONL checks a telemetry stream and folds it into per-group
// rows. The checks: interval numbers strictly increase, every slo record
// passes sloViolations, and the stream holds at least one interval or
// slo record; any violation is an error. The fold: the last slo record
// per group wins for the point-in-time columns, verdicts accumulate into
// the ok/warn/page totals, and interval records add ladder rung counts.
// Interval records carry no group label (the chaos stream is
// single-group), so their rungs attach to the stream's sole slo group
// when there is exactly one.
func statsFromJSONL(lines [][]byte) ([]groupStat, error) {
	byGroup := map[string]*groupStat{}
	lastBoundary := map[string]int{}
	var mc, uc, rs int64
	lastInterval, intervals := 0, 0
	var bad []error
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		complain := func(msg string) { bad = append(bad, fmt.Errorf("line %d: %s", i+1, msg)) }
		switch rec.Kind {
		case "slo":
			for _, msg := range rec.sloViolations(lastBoundary[rec.Group]) {
				complain(msg)
			}
			lastBoundary[rec.Group] = rec.Boundary
			st, ok := byGroup[rec.Group]
			if !ok {
				st = &groupStat{Group: rec.Group}
				byGroup[rec.Group] = st
			}
			st.Members = int64(rec.Members)
			st.RekeyCost = int64(rec.RekeyCost)
			st.P95MS = rec.LatencyP95MS
			st.Verdict = rec.Verdict
			switch rec.Verdict {
			case "ok":
				st.OK++
			case "warn":
				st.Warn++
			case "page":
				st.Page++
			}
		case "interval":
			intervals++
			if rec.Interval <= lastInterval {
				complain(fmt.Sprintf("interval %d not greater than previous %d", rec.Interval, lastInterval))
			}
			lastInterval = rec.Interval
			mc += int64(rec.KeyByMulticast)
			uc += int64(rec.KeyByUnicast)
			rs += int64(rec.KeyByResync)
		}
	}
	if intervals == 0 && len(byGroup) == 0 {
		bad = append(bad, errors.New("no interval or slo records"))
	}
	if len(bad) > 0 {
		return nil, errors.Join(bad...)
	}
	if len(byGroup) == 1 {
		for _, st := range byGroup {
			st.Multicast, st.Unicast, st.Resync = mc, uc, rs
		}
	}
	out := make([]groupStat, 0, len(byGroup))
	for _, st := range byGroup {
		out = append(out, *st)
	}
	return out, nil
}

func statsFromJSONLFile(path string) ([]groupStat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // final snapshot lines are large
	for sc.Scan() {
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return statsFromJSONL(lines)
}
