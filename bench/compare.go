package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords loads the end-to-end runs of a results file by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict applies a metric's direction and bound to two sets of runs:
// "worse" when b's median is worse than a's by more than the bound,
// "unresolved" when either set's own quartile spread is wider than the
// bound (unless every run of b reads better than every run of a), "ok"
// otherwise. change is b's median relative to a's, positive = worse.
func verdict(sm specMetric, a, b []float64) (v string, change float64) {
	sign := 1.0
	if sm.Better == "higher" {
		sign = -1
	}
	change = sign * ratio(median(b)-median(a), median(a))
	if quartileSpread(a) > sm.Bound || quartileSpread(b) > sm.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				allBetter = allBetter && sign*(y-x) < 0
			}
		}
		if !allBetter {
			return "unresolved", change
		}
		return "ok", change
	}
	if change > sm.Bound {
		return "worse", change
	}
	return "ok", change
}

// compareFiles prints one row per workload with a verdict per
// end-to-end metric and reports whether any was "worse". Files measured
// for different lengths or at different sizes are refused.
func compareFiles(specPath, pathA, pathB string, w io.Writer) (worse bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-20s missing from one file\n", wl.Name)
			continue
		}
		for _, r := range append(append([]record(nil), ra...), rb...) {
			if r.Intervals != ra[0].Intervals || r.Members != ra[0].Members {
				return false, fmt.Errorf("%s: runs of %d intervals at %d members and of %d intervals at %d members do not compare",
					wl.Name, ra[0].Intervals, ra[0].Members, r.Intervals, r.Members)
			}
		}
		fmt.Fprintf(w, "%-20s runs %d/%d", wl.Name, len(ra), len(rb))
		for _, sm := range spec.EndToEnd {
			v, change := verdict(sm, values(ra, sm.Name), values(rb, sm.Name))
			worse = worse || v == "worse"
			fmt.Fprintf(w, "  %s=%s(%+.1f%%)", sm.Name, v, 100*change)
		}
		fmt.Fprintln(w)
	}
	return worse, nil
}
