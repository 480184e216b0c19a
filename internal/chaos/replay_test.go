package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tmesh/internal/obs"
	"tmesh/internal/workload"
)

// schedFile is one schedule under internal/workload/testdata: a
// committed corner case, or a failing soak's reproducer saved there.
type schedFile struct {
	name  string
	sched *workload.Schedule
	// command is the "# rekeysim <command> <flags>" line a reproducer
	// starts with, split into fields; nil for a plane-neutral file.
	command []string
}

func scheduleFiles(t *testing.T) []schedFile {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "workload", "testdata", "*.sched"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no schedules under internal/workload/testdata: %v", err)
	}
	var out []schedFile
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := workload.ParseSchedule(string(text))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		f := schedFile{name: filepath.Base(p), sched: sched}
		if rest, ok := strings.CutPrefix(string(text), "# rekeysim "); ok {
			line, _, _ := strings.Cut(rest, "\n")
			f.command = strings.Fields(line)
		}
		out = append(out, f)
	}
	return out
}

// runs reports whether the file is for the named rekeysim command: its
// own reproducers, and every plane-neutral file.
func (f schedFile) runs(command string) bool {
	return f.command == nil || f.command[0] == command
}

// intervalsOf is the number of soak intervals a schedule spans.
func intervalsOf(s *workload.Schedule) int {
	return int(s.Events[len(s.Events)-1].At/intervalLength) + 1
}

// flags parses the file's command-line flags onto fs; a plane-neutral
// file keeps fs's defaults.
func (f schedFile) flags(t *testing.T, fs *flag.FlagSet) {
	t.Helper()
	if f.command != nil {
		if err := fs.Parse(f.command[1:]); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
	}
}

// replaySoak plays a schedule through the chaos engine.
func replaySoak(t *testing.T, cfg Config, sched *workload.Schedule) (*Engine, *Report) {
	t.Helper()
	e, err := newEngine(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, rep
}

// TestSoakReplaysRecordedSchedule: a soak's recorded schedule, printed,
// parsed and replayed under the same Config, reproduces its report byte
// for byte — leader kills and bursts included — and records itself.
func TestSoakReplaysRecordedSchedule(t *testing.T) {
	lossy := DefaultConfig(7)
	lossy.HopLoss = 0.2
	for _, cfg := range []Config{DefaultConfig(1), DefaultConfig(3), lossy} {
		rep := runSoak(t, cfg)
		text := rep.Schedule.String()
		sched, err := workload.ParseSchedule(text)
		if err != nil {
			t.Fatal(err)
		}
		_, replayed := replaySoak(t, cfg, sched)
		if replayed.String() != rep.String() {
			t.Errorf("seed %d: replay diverged:\n--- run ---\n%s--- replay ---\n%s", cfg.Seed, rep, replayed)
		}
		if replayed.Schedule.String() != text {
			t.Errorf("seed %d: the replay recorded a different schedule", cfg.Seed)
		}
	}
}

// cornerCases checks, per committed schedule, that its corner case
// happened: on the report both wires print and, given the simulator's
// engine (nil on the socket wire), in its state.
var cornerCases = map[string]func(t *testing.T, rep *Report, e *Engine){
	"mass-join-leave.sched": func(t *testing.T, rep *Report, _ *Engine) {
		if s := rep.Intervals[1]; s.Joins != 8 || s.Leaves != 8 || s.Members != 16 {
			t.Errorf("mass interval: %s", s.line())
		}
	},
	"join-leave-same-interval.sched": func(t *testing.T, rep *Report, e *Engine) {
		if s := rep.Intervals[1]; s.Joins != 2 || s.Leaves != 1 || s.Members != 9 {
			t.Errorf("the cancelled joiner came up: %s", s.line())
		}
		if e == nil {
			return
		}
		if n := e.cfg.Obs.Counter("chaos_join_cancelled").Value(); n != 1 {
			t.Errorf("%d joins cancelled, want 1", n)
		}
	},
	"pending-joiner-crash.sched": func(t *testing.T, rep *Report, e *Engine) {
		if s := rep.Intervals[1]; s.Joins != 1 || s.Crashes != 1 || s.Members != 8 || s.DeadInFlight != 0 {
			t.Errorf("the crashed joiner came up or went dark: %s", s.line())
		}
		if e == nil {
			return
		}
		if n := e.cfg.Obs.Counter("chaos_join_cancelled").Value(); n != 1 {
			t.Errorf("%d joins cancelled, want the crashed joiner's", n)
		}
		if len(e.det.crashes) != 1 {
			t.Fatalf("crash table %v, want one entry", e.det.crashes)
		}
		for _, c := range e.det.crashes {
			if _, present := e.dir.Record(c.id); present || !c.reaped || len(e.dir.Holders(c.id)) != 0 {
				t.Errorf("crashed joiner %v: present %v, reaped %v, held by %v; want evicted, reaped, repaired out of every table",
					c.id, present, c.reaped, e.dir.Holders(c.id))
			}
		}
	},
	"rejoin.sched": func(t *testing.T, rep *Report, e *Engine) {
		if a, b := rep.Intervals[1], rep.Intervals[2]; a.Members != 7 || b.Joins != 1 || b.Members != 8 {
			t.Errorf("host 3 did not leave and come back:\n%s\n%s", a.line(), b.line())
		}
		if e == nil {
			return
		}
		id, ok := e.idOf[3]
		rec, present := e.dir.Record(id)
		if !ok || !present || rec.JoinTime != 42*time.Second {
			t.Errorf("host 3 is not back from 42s: id %v (%v), record %+v (%v)", id, ok, rec, present)
		}
	},
}

// TestSoakReplaysSchedules replays every plane-neutral schedule under
// internal/workload/testdata, and every reproducer a failing
// `rekeysim soak` printed and someone saved there, through the chaos
// engine with every auditor armed.
func TestSoakReplaysSchedules(t *testing.T) {
	for _, f := range scheduleFiles(t) {
		if !f.runs("soak") {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			cfg := Config{Seed: 1, Intervals: intervalsOf(f.sched), InitialMembers: len(f.sched.Cursor().Next(1))}
			fs := flag.NewFlagSet("soak", flag.ContinueOnError)
			fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "")
			fs.IntVar(&cfg.Intervals, "intervals", cfg.Intervals, "")
			fs.IntVar(&cfg.InitialMembers, "members", cfg.InitialMembers, "")
			fs.Float64Var(&cfg.HopLoss, "loss", 0, "")
			f.flags(t, fs)
			cfg.Obs = obs.New()
			e, rep := replaySoak(t, cfg, f.sched)
			if rep.TotalViolations() != 0 {
				t.Fatalf("replay of %s found violations:\n%s", f.name, rep)
			}
			if check := cornerCases[f.name]; check != nil {
				check(t, rep, e)
			} else if f.command == nil {
				t.Errorf("%s: no corner-case check", f.name)
			}
		})
	}
}

// TestReportReproducer pins what a failing soak prints as its
// reproducer: the recorded schedule through the boundary of the first
// interval with a violation, the whole schedule when only the final
// sweep failed, and nothing for a green run. Replayed under the same
// Config, the reproducer plays that run's first intervals again, line
// for line.
func TestReportReproducer(t *testing.T) {
	cfg := Config{Seed: 5, Intervals: 6, InitialMembers: 60, HopLoss: 0.1}
	rep := runSoak(t, cfg)
	if rep.TotalViolations() != 0 {
		t.Fatalf("the soak under test is not green:\n%s", rep)
	}
	if r := rep.Reproducer(); r != nil {
		t.Fatalf("a green run has a reproducer of %d events", len(r.Events))
	}

	const k = 4
	var lines []string // as run, before any violation is planted
	for i := 0; i < k; i++ {
		lines = append(lines, rep.Intervals[i].line())
	}
	rep.Intervals[k-1].Violations = []string{"coverage: planted"}
	rep.Intervals[k].Violations = []string{"coverage: planted later"}
	repro := rep.Reproducer()
	want := rep.Schedule.Cursor().Next(time.Duration(k) * intervalLength)
	if repro == nil || repro.String() != workload.NewSchedule(want).String() {
		t.Fatalf("reproducer is not the schedule through boundary %d:\n%v", k, repro)
	}
	if len(want) == 0 || len(want) == len(rep.Schedule.Events) {
		t.Fatalf("boundary %d keeps %d of %d events: the cut is not exercised", k, len(want), len(rep.Schedule.Events))
	}
	cfg.Intervals = k
	_, replayed := replaySoak(t, cfg, repro)
	for i := 0; i < k; i++ {
		if got, want := replayed.Intervals[i].line(), lines[i]; got != want {
			t.Errorf("interval %d: replay %q, run %q", i+1, got, want)
		}
	}

	for i := range rep.Intervals {
		rep.Intervals[i].Violations = nil
	}
	rep.FinalViolations = []string{"coverage: planted at the final sweep"}
	if r := rep.Reproducer(); r == nil || r.String() != rep.Schedule.String() {
		t.Errorf("final-sweep reproducer is not the whole schedule:\n%v", r)
	}
}
