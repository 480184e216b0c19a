package chaos

import (
	"flag"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/work"
	"tmesh/internal/workload"
)

// socketLeakGuard snapshots the goroutine count and asserts the soak
// tore every node, pump, and ladder goroutine down.
func socketLeakGuard(t *testing.T) func() {
	t.Helper()
	// The work.Run helpers are process-wide and outlive every World by
	// design: start them before the snapshot so they do not read as a
	// leak.
	work.Run(0, work.Width(), func(_ int, next func() (int, bool)) {
		for {
			if _, ok := next(); !ok {
				return
			}
		}
	})
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestSocketSoakGreen is the acceptance gate: one full cycle of the
// fault ladder — clean, loss, delay, partition, kill/restore, crash —
// over real loopback, UDP and TCP transports, with all five
// paper-invariant auditors green. This is the `make soak-transport` target.
func TestSocketSoakGreen(t *testing.T) {
	for _, tr := range []string{"loopback", "udp", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			check := socketLeakGuard(t)
			rep, err := RunSocketSoak(DefaultSocketConfig(tr))
			if err != nil {
				t.Fatalf("socket soak driver failed: %v", err)
			}
			if rep.TotalViolations() != 0 {
				t.Fatalf("socket soak found violations:\n%s", rep.String())
			}
			if len(rep.Intervals) != len(socketPhases) {
				t.Fatalf("ran %d intervals, want %d", len(rep.Intervals), len(socketPhases))
			}
			check()
		})
	}
}

// TestSocketSoakReportShape pins the report's structure: the auditor
// registry in canonical order, every phase visited, and the ladder
// rungs engaged when faults were live (a soak whose faulty intervals
// all converged by pure multicast did not actually inject faults).
func TestSocketSoakReportShape(t *testing.T) {
	rep, err := RunSocketSoak(DefaultSocketConfig("loopback"))
	if err != nil {
		t.Fatal(err)
	}
	wantAuditors := "k-consistency,delivery,coverage,cluster,ladder"
	if got := strings.Join(rep.Auditors, ","); got != wantAuditors {
		t.Fatalf("auditor registry = %s, want %s", got, wantAuditors)
	}
	phases := make(map[string]bool)
	ladderWork := 0
	for i := range rep.Intervals {
		s := &rep.Intervals[i]
		phases[s.Phase] = true
		if s.Expected == 0 {
			t.Fatalf("interval %d expected nobody", s.Index)
		}
		ladderWork += s.KeyByUnicast + s.KeyByResync
		if s.MaxBackoff > socketLadder.RetryMax {
			t.Fatalf("interval %d reported backoff %v over the %v cap", s.Index, s.MaxBackoff, socketLadder.RetryMax)
		}
	}
	for _, p := range socketPhases {
		if !phases[p] {
			t.Fatalf("phase %q never ran", p)
		}
	}
	if ladderWork == 0 {
		t.Fatal("no interval engaged the recovery ladder; the fault phases injected nothing")
	}
	if !strings.Contains(rep.String(), "phase=kill") {
		t.Fatalf("report does not render phases:\n%s", rep.String())
	}
}

// TestSocketSoakReplaysItsSchedule: replayed over loopback from its own
// recorded schedule, the socket soak executes the same joins, leaves,
// crashes and kills in every interval, records the same schedule and
// ends with the same member IDs. (Rung counts follow real timing, so the
// reports need not match byte for byte.)
func TestSocketSoakReplaysItsSchedule(t *testing.T) {
	cfg := DefaultSocketConfig("loopback")
	rep, err := RunSocketSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Schedule.String()
	sched, err := workload.ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := runSocketSoak(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalViolations()+replayed.TotalViolations() != 0 {
		t.Fatalf("violations:\n%s\n%s", rep, replayed)
	}
	for i, s := range rep.Intervals {
		r := replayed.Intervals[i]
		if s.Joins != r.Joins || s.Leaves != r.Leaves || s.Crashes != r.Crashes || s.Kills != r.Kills || s.Members != r.Members {
			t.Errorf("interval %d: run %s\nreplay %s", i, s.line(), r.line())
		}
	}
	if replayed.Schedule.String() != text {
		t.Errorf("the replay recorded a different schedule:\n%s---\n%s", text, replayed.Schedule)
	}
	if !slices.EqualFunc(rep.final, replayed.final, ident.ID.Equal) || len(rep.final) == 0 {
		t.Errorf("final members %v, replay %v", rep.final, replayed.final)
	}
}

// socketCornerCases checks, per committed schedule, that its corner case
// happened on the socket plane.
var socketCornerCases = map[string]func(t *testing.T, rep *SocketReport){
	"mass-join-leave.sched": func(t *testing.T, rep *SocketReport) {
		if s := rep.Intervals[1]; s.Joins != 8 || s.Leaves != 8 || s.Members != 16 {
			t.Errorf("mass interval: %s", s.line())
		}
	},
	"join-leave-same-interval.sched": func(t *testing.T, rep *SocketReport) {
		if s := rep.Intervals[1]; s.Joins != 2 || s.Leaves != 1 || s.Members != 9 {
			t.Errorf("the cancelled joiner came up: %s", s.line())
		}
	},
	"pending-joiner-crash.sched": func(t *testing.T, rep *SocketReport) {
		if s := rep.Intervals[1]; s.Joins != 1 || s.Crashes != 1 || s.Members != 8 || s.DeadInFlight != 0 {
			t.Errorf("the crashed joiner came up or went dark: %s", s.line())
		}
	},
	"rejoin.sched": func(t *testing.T, rep *SocketReport) {
		if a, b := rep.Intervals[1], rep.Intervals[2]; a.Members != 7 || b.Joins != 1 || b.Members != 8 {
			t.Errorf("host 3 did not leave and come back:\n%s\n%s", a.line(), b.line())
		}
	},
}

// TestSocketSoakReplaysSchedules replays every plane-neutral schedule
// under internal/workload/testdata, and every reproducer a failing
// `rekeysim daemon` printed and someone saved there, over loopback.
func TestSocketSoakReplaysSchedules(t *testing.T) {
	for _, f := range scheduleFiles(t) {
		if !f.runs("daemon") {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			cfg := SocketConfig{Transport: "loopback", Seed: 1, Intervals: intervalsOf(f.sched)}
			fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
			fs.StringVar(&cfg.Transport, "transport", cfg.Transport, "")
			fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "")
			fs.IntVar(&cfg.Members, "members", 0, "")
			fs.IntVar(&cfg.Intervals, "intervals", cfg.Intervals, "")
			f.flags(t, fs)
			rep, err := runSocketSoak(cfg, f.sched)
			if err != nil {
				t.Fatal(err)
			}
			if rep.TotalViolations() != 0 {
				t.Fatalf("replay of %s found violations:\n%s", f.name, rep)
			}
			if check := socketCornerCases[f.name]; check != nil {
				check(t, rep)
			} else if f.command == nil {
				t.Errorf("%s: no corner-case check", f.name)
			}
		})
	}
}
