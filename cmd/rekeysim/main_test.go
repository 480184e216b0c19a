package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tmesh/internal/obs"
	"tmesh/internal/obs/expose"
	"tmesh/internal/obs/trace"
)

func TestRunArgHandling(t *testing.T) {
	// Each command parses its own flag set, so a flag that belongs to
	// another command is undefined in this one. The row names are those
	// of the single flag set that came before the commands.
	tests := []struct {
		name string
		args []string
		want int
	}{
		{"no experiment", nil, 2},
		{"unknown experiment", []string{"fig99"}, 2},
		{"two experiments", []string{"fig6", "fig7"}, 2},
		{"bad flag", []string{"fig6", "-bogus"}, 2},
		{"metrics-out without soak", []string{"fig6", "-metrics-out", os.DevNull}, 2},
		{"trace-out without soak", []string{"fig6", "-trace-out", os.DevNull}, 2},
		{"trace-sample without soak", []string{"fig6", "-trace-sample", "2"}, 2},
		{"soak-intervals without soak", []string{"fig6", "-intervals", "3"}, 2},
		{"soak-members without soak", []string{"fig6", "-members", "40"}, 2},
		{"soak-loss without soak", []string{"fig6", "-loss", "0.1"}, 2},
		{"several soak flags without soak", []string{"fig6", "-members", "40", "-trace-out", os.DevNull}, 2},
		{"soak-n without soak", []string{"fig6", "-n", "1000"}, 2},
		{"soak-churn without soak", []string{"fig6", "-churn", "10"}, 2},
		// The scale soak has no virtual network; the chaos soak has no
		// churn knob.
		{"soak-churn without soak-n", []string{"soak", "-churn", "10"}, 2},
		{"soak-n with soak-members", []string{"scale", "-members", "40"}, 2},
		{"soak-n with soak-loss", []string{"scale", "-loss", "0.1"}, 2},
		{"soak-n with trace-out", []string{"scale", "-trace-out", os.DevNull}, 2},
		{"soak-n with experiment arg", []string{"scale", "fig6"}, 2},
		// The tenancy soak has no fault ladder, single network session
		// or churn knob.
		{"groups without soak", []string{"fig6", "-groups", "4"}, 2},
		{"flash-joins without soak", []string{"fig6", "-flash-joins", "1000"}, 2},
		{"mass-churn without soak", []string{"fig6", "-mass-churn", "100"}, 2},
		{"flash-joins without groups", []string{"soak", "-flash-joins", "1000"}, 2},
		{"mass-churn without groups", []string{"soak", "-mass-churn", "100"}, 2},
		{"groups with soak-n", []string{"tenancy", "-n", "1000"}, 2},
		{"groups with soak-members", []string{"tenancy", "-members", "40"}, 2},
		{"groups with soak-loss", []string{"tenancy", "-loss", "0.1"}, 2},
		{"groups with soak-churn", []string{"tenancy", "-churn", "10"}, 2},
		{"groups with trace-out", []string{"tenancy", "-trace-out", os.DevNull}, 2},
		{"groups with experiment arg", []string{"tenancy", "fig6"}, 2},
		// Every experiment flag is accepted by an experiment.
		{"experiment without soak flags ok", []string{"fig14", "-seed", "1", "-scale", "0.02", "-runs", "1", "-points", "4", "-progress"}, 0},
		{"transport without daemon", []string{"soak", "-transport", "udp"}, 2},
		{"listen without daemon", []string{"soak", "-listen", "127.0.0.1:0"}, 2},
		// The mode flags and the soak-/daemon- prefixes are gone.
		{"daemon-members without daemon", []string{"daemon", "-daemon-members", "8"}, 2},
		{"daemon-intervals without daemon", []string{"daemon", "-daemon-intervals", "2"}, 2},
		{"daemon with soak", []string{"daemon", "-soak"}, 2},
		{"soak flag", []string{"-soak"}, 2},
		{"soak-loss flag", []string{"soak", "-soak-loss", "0.1"}, 2},
		{"daemon with experiment arg", []string{"daemon", "fig6"}, 2},
		// An empty locator binds 127.0.0.1:0, and loopback binds nothing.
		{"daemon udp without listen", []string{"daemon", "-transport", "udp", "-members", "8", "-intervals", "2"}, 0},
		{"daemon tcp without listen", []string{"daemon", "-transport", "tcp", "-members", "8", "-intervals", "2"}, 0},
		{"daemon listen with loopback", []string{"daemon", "-listen", "127.0.0.1:0", "-members", "8", "-intervals", "2"}, 0},
		// "sim" was an alias for the chaos soak; it is an unknown transport now.
		{"daemon listen with sim", []string{"daemon", "-transport", "sim", "-listen", "127.0.0.1:0"}, 2},
		{"daemon transport sim", []string{"daemon", "-transport", "sim"}, 2},
		{"daemon unknown transport", []string{"daemon", "-transport", "carrier-pigeon"}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := run(tt.args); got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
			}
		})
	}
}

// TestRunScaleSoakSmoke drives a tiny scale soak end to end through the
// CLI path; exit 0 means every keyring spot check stayed green.
func TestRunScaleSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	args := []string{"scale", "-n", "500", "-churn", "20", "-intervals", "4"}
	if got := run(args); got != 0 {
		t.Errorf("run(%v) = %d, want 0", args, got)
	}
}

// TestRunMultiGroupSoakSmoke drives a small multi-group tenancy soak
// end to end through the CLI path; exit 0 means every per-group auditor
// stayed green and the cross-width replay was byte-identical.
func TestRunMultiGroupSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	args := []string{"tenancy", "-groups", "4", "-flash-joins", "2000", "-mass-churn", "300", "-intervals", "2"}
	if got := run(args); got != 0 {
		t.Errorf("run(%v) = %d, want 0", args, got)
	}
}

// TestRunTinyExperiments drives the cheapest experiments end to end
// through the CLI path (scaled far down).
func TestRunTinyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	for _, exp := range []string{"joincost", "fig14"} {
		if got := run([]string{exp, "-scale", "0.02", "-points", "4"}); got != 0 {
			t.Errorf("run(%s) = %d, want 0", exp, got)
		}
	}
}

// TestFigureGoldens pins the experiment runners' output: each small
// figure at -scale 0.1 -seed 1 must reproduce, byte for byte and at
// either fan-out width, the TSV a build of the commit before the
// runners joined work.Run printed (testdata/golden-*.tsv).
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	for _, fig := range []string{"packets", "loss", "congestion", "ablation", "joincost", "gnp", "fig7", "fig13"} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden-"+fig+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			got := captureStdout(t, func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				if code := run([]string{fig, "-scale", "0.1", "-seed", "1"}); code != 0 {
					t.Errorf("run(%s) = %d, want 0", fig, code)
				}
			})
			if got != string(want) {
				t.Errorf("%s at GOMAXPROCS %d drifted from its golden:\n--- got ---\n%s--- want ---\n%s", fig, procs, got, want)
			}
		}
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunDaemonSmoke drives the socket daemon soak through the CLI
// path: loopback needs no locator, UDP binds real ephemeral sockets at
// -listen. Two intervals cover the clean and loss rungs of the fault
// ladder; exit 0 means every auditor stayed green.
func TestRunDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	base := []string{"daemon", "-members", "8", "-intervals", "2"}
	if got := run(base); got != 0 {
		t.Errorf("run(daemon loopback) = %d, want 0", got)
	}
	if got := run(append(base, "-transport", "udp", "-listen", "127.0.0.1:0")); got != 0 {
		t.Errorf("run(daemon udp) = %d, want 0", got)
	}
}

// TestRunSoakMetricsOut drives a tiny instrumented soak through the CLI
// path and checks the JSONL stream: valid JSON per line, strictly
// increasing interval numbers, and a final registry-snapshot record.
func TestRunSoakMetricsOut(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	out := filepath.Join(t.TempDir(), "metrics.jsonl")
	if got := run([]string{"soak", "-intervals", "3", "-members", "40", "-metrics-out", out}); got != 0 {
		t.Fatalf("run(soak -metrics-out) = %d, want 0", got)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	// 3 interval records + 3 slo records + the final metrics record.
	if len(lines) != 7 {
		t.Fatalf("got %d JSONL lines, want 7:\n%s", len(lines), data)
	}
	lastInterval, lastBoundary, intervals, slos := 0, 0, 0, 0
	for i, line := range lines {
		var ev struct {
			Kind     string `json:"kind"`
			Interval int    `json:"interval"`
			Boundary int    `json:"boundary"`
			Verdict  string `json:"verdict"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
		switch ev.Kind {
		case "interval":
			intervals++
			if ev.Interval <= lastInterval {
				t.Errorf("line %d: interval %d not strictly after %d", i+1, ev.Interval, lastInterval)
			}
			lastInterval = ev.Interval
		case "slo":
			slos++
			if ev.Boundary <= lastBoundary {
				t.Errorf("line %d: slo boundary %d not strictly after %d", i+1, ev.Boundary, lastBoundary)
			}
			lastBoundary = ev.Boundary
			if ev.Verdict != "ok" && ev.Verdict != "warn" && ev.Verdict != "page" {
				t.Errorf("line %d: slo verdict = %q", i+1, ev.Verdict)
			}
		case "metrics":
			if i != len(lines)-1 {
				t.Errorf("line %d: metrics record before end of stream", i+1)
			}
		default:
			t.Errorf("line %d: unexpected kind %q", i+1, ev.Kind)
		}
	}
	if intervals != 3 || slos != 3 {
		t.Errorf("got %d interval + %d slo records, want 3 + 3", intervals, slos)
	}
}

// TestRunMultiGroupSoakMetricsOut drives a small tenancy soak with the
// ops stream on: each tenant must emit one "slo" record per audited
// boundary (strictly increasing per group), the stream must end in a
// registry snapshot, and the soak must still exit green — telemetry on
// the main run must not perturb the cross-width replay compare.
func TestRunMultiGroupSoakMetricsOut(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	out := filepath.Join(t.TempDir(), "tenancy.jsonl")
	args := []string{"tenancy", "-groups", "3", "-flash-joins", "2000", "-mass-churn", "300",
		"-intervals", "2", "-metrics-out", out}
	if got := run(args); got != 0 {
		t.Fatalf("run(%v) = %d, want 0", args, got)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	lastBoundary := map[string]int{}
	slos := 0
	for i, line := range lines {
		var ev struct {
			Kind     string `json:"kind"`
			Group    string `json:"group"`
			Boundary int    `json:"boundary"`
			Verdict  string `json:"verdict"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
		switch ev.Kind {
		case "slo":
			slos++
			if ev.Group == "" {
				t.Errorf("line %d: slo record without group", i+1)
			}
			if ev.Boundary <= lastBoundary[ev.Group] {
				t.Errorf("line %d: group %s boundary %d not strictly after %d",
					i+1, ev.Group, ev.Boundary, lastBoundary[ev.Group])
			}
			lastBoundary[ev.Group] = ev.Boundary
			if ev.Verdict != "ok" && ev.Verdict != "warn" && ev.Verdict != "page" {
				t.Errorf("line %d: slo verdict = %q", i+1, ev.Verdict)
			}
		case "metrics":
			if i != len(lines)-1 {
				t.Errorf("line %d: metrics record before end of stream", i+1)
			}
		default:
			t.Errorf("line %d: unexpected kind %q", i+1, ev.Kind)
		}
	}
	if len(lastBoundary) != 3 {
		t.Errorf("slo records cover %d groups, want 3: %v", len(lastBoundary), lastBoundary)
	}
	if slos == 0 {
		t.Error("no slo records in tenancy stream")
	}
}

// TestRunSoakTraceOut drives a tiny soak with the flight recorder on
// and audits the resulting trace file end to end.
func TestRunSoakTraceOut(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	if got := run([]string{"soak", "-intervals", "3", "-members", "40", "-trace-out", out}); got != 0 {
		t.Fatalf("run(soak -trace-out) = %d, want 0", got)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := trace.ParseRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	audits, err := trace.AuditRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	if len(audits) != 6 { // a data and a rekey trace per interval
		t.Fatalf("trace file holds %d traces, want 6", len(audits))
	}
	for _, a := range audits {
		if !a.OK() {
			t.Errorf("trace %s: %d audit violations", a.ID, a.TotalViolations())
		}
	}
}

// TestRunSoakSinkWriteErrorExit: a soak whose telemetry or trace file
// cannot be written must exit non-zero, not silently drop the stream.
// /dev/full fails every write with ENOSPC.
func TestRunSoakSinkWriteErrorExit(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	if f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Skipf("/dev/full unavailable: %v", err)
	} else {
		f.Close()
	}
	base := []string{"soak", "-intervals", "2", "-members", "40"}
	if got := run(append(base, "-metrics-out", "/dev/full")); got != 1 {
		t.Errorf("run(-metrics-out /dev/full) = %d, want 1", got)
	}
	if got := run(append(base, "-trace-out", "/dev/full")); got != 1 {
		t.Errorf("run(-trace-out /dev/full) = %d, want 1", got)
	}
}

// TestOpsEndpointsTrackActiveRegistry: /metrics must follow activeObs
// per request. A process that runs several
// instrumented soaks back to back swaps registries; a scrape landing
// after the swap must see the new instruments, not a captured registry
// from whenever the handler was registered.
func TestOpsEndpointsTrackActiveRegistry(t *testing.T) {
	registerOps()
	h := expose.Handler(metricsSource())
	scrape := func() string {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		if rr.Code != 200 {
			t.Fatalf("GET /metrics = %d", rr.Code)
		}
		return rr.Body.String()
	}

	reg1 := obs.New()
	reg1.Counter("first_marker").Inc()
	activeObs.Store(reg1)
	if body := scrape(); !strings.Contains(body, "first_marker") {
		t.Fatalf("first scrape missing first_marker:\n%s", body)
	}

	reg2 := obs.New()
	reg2.Counter("second_marker").Inc()
	activeObs.Store(reg2)
	body := scrape()
	if !strings.Contains(body, "second_marker") {
		t.Errorf("second scrape missing second_marker:\n%s", body)
	}
	if strings.Contains(body, "first_marker") {
		t.Errorf("second scrape still serves the stale registry:\n%s", body)
	}
}

func TestRunnerScaling(t *testing.T) {
	r := runner{scale: 0.5}
	if got := r.n(100); got != 50 {
		t.Errorf("n(100) at 0.5 = %d, want 50", got)
	}
	if got := r.n(2); got != 4 {
		t.Errorf("n floor = %d, want 4", got)
	}
	if got := r.runs(10); got != 5 {
		t.Errorf("runs(10) = %d, want 5", got)
	}
	r = runner{scale: 0.01}
	if got := r.runs(10); got != 1 {
		t.Errorf("runs floor = %d, want 1", got)
	}
	r = runner{scale: 1, runsOverride: 3}
	if got := r.runs(100); got != 3 {
		t.Errorf("runs override = %d, want 3", got)
	}
}
