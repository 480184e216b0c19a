// Command bench is the repo benchmark described by ../BENCHMARK.json:
// four closed-loop rekey workloads, end-to-end metrics with tracing
// off, and a traced run that prices every layer. See README.md.
//
//	bash bench/run.sh --workload sim_4096 --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1 --trace 1 --out bench/baseline/x.jsonl   # every workload
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// stamp says where and how a run was made.
type stamp struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	RmemDefault int    `json:"rmem_default"`
	RmemMax     int    `json:"rmem_max"`
	Network     string `json:"network"`
	Time        string `json:"time"`
}

const networkNote = "host loopback interface 127.0.0.1, not a real link"

func newStamp() stamp {
	sysctl := func(name string) int {
		b, err := os.ReadFile("/proc/sys/net/core/" + name)
		if err != nil {
			return 0
		}
		n, _ := strconv.Atoi(strings.TrimSpace(string(b)))
		return n
	}
	commit := "unknown"
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		RmemDefault: sysctl("rmem_default"), RmemMax: sysctl("rmem_max"),
		Network: networkNote, Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// record is one line of a results file: one run of one workload.
type record struct {
	Stamp     stamp     `json:"stamp"`
	Workload  string    `json:"workload"`
	Members   int       `json:"members"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Intervals int       `json:"intervals"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload, prints its metrics and result line, and
// returns the record for the results file.
func runOne(w workload, c config, seconds float64, traced bool) (record, *tracer, error) {
	run, defs := runUntraced, endToEnd
	if traced {
		run, defs = runTraced, perLayer
	}
	out, err := run(w, c)
	if err != nil {
		return record{}, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := record{Workload: w.name, Members: c.n, Seed: c.seed, Seconds: seconds, Intervals: c.intervals, Trace: traced,
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}

	fmt.Printf("# %s: %d members, seed %d, %d intervals, trace %v; closed loop, one driver; %s\n",
		w.name, c.n, c.seed, c.intervals, traced, networkNote)
	line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]valueOfUnit{}}
	for _, d := range defs {
		m, ok := out.metrics[d.name]
		if !ok {
			return record{}, nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
		}
		fmt.Printf("%-46s %16.6f %-6s n=%d\n", d.name, m.Value, m.Unit, m.N)
		line.Metrics[d.name] = valueOfUnit{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return record{}, nil, err
	}
	fmt.Println(string(b))
	return rec, out.trace, nil
}

// appendRecords adds runs to a results file, one JSON object per line.
func appendRecords(path string, recs []record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	return writeLines(f, len(recs), func(i int) any { return &recs[i] })
}

// writeLines writes n JSON values to f, one per line, and closes it.
func writeLines(f *os.File, n int, at func(i int) any) error {
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var err error
	for i := 0; i < n && err == nil; i++ {
		err = enc.Encode(at(i))
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, in turn)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 10, "run length: each workload measures its fixed number of intervals per second of this")
		trace   = flag.Int("trace", 0, "1: traced run (per-layer metrics), 0: end-to-end run")
		out     = flag.String("out", "", "append the runs to this results file; a traced run also writes trace-<workload>.jsonl beside it")
		compare = flag.Bool("compare", false, "compare two results files against the bounds in ./BENCHMARK.json: -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		worse, err := compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file]"))
	}
	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		todo = []workload{w}
	}

	var recs []record
	correct := true
	for _, w := range todo {
		c := config{n: w.n, seed: *seed, intervals: max(3, int(math.Round(*seconds*w.perSecond))), setups: w.setups}
		rec, tr, err := runOne(w, c, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		correct = correct && rec.Correct
		recs = append(recs, rec)
		if *out != "" && tr != nil {
			if err := tr.writeJSONL(filepath.Join(filepath.Dir(*out), "trace-"+w.name+".jsonl")); err != nil {
				fatal(err)
			}
		}
	}
	if *out != "" {
		st := newStamp()
		for i := range recs {
			recs[i].Stamp = st
		}
		if err := appendRecords(*out, recs); err != nil {
			fatal(err)
		}
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: members ended an interval without the server's group key")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
