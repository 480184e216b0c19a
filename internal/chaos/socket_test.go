package chaos

import (
	"flag"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/rekeyd"
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

// replaySocketSoak plays a schedule over the socket wire; the world
// stays up for inspection until the test ends.
func replaySocketSoak(t *testing.T, cfg SocketConfig, sched *workload.Schedule) (*rekeyd.World, *Report) {
	t.Helper()
	run, err := newSocketRun(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { run.w.Close() })
	rep, err := run.play()
	if err != nil {
		t.Fatal(err)
	}
	return run.w, rep
}

func memberIDs(w *rekeyd.World) []ident.ID {
	var ids []ident.ID
	for _, m := range w.Members() {
		ids = append(ids, m.ID())
	}
	return ids
}

// TestSocketSoakReportShape pins the report's structure: the
// simulator's header with the transport named, the auditor registry in
// canonical order, every phase visited, and the ladder rungs engaged
// when faults were live (a soak whose faulty intervals all converged by
// pure multicast did not actually inject faults).
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
		if s.Index != i+1 || s.RekeyCost == 0 || s.KeyByMulticast+s.KeyByUnicast+s.KeyByResync == 0 {
			t.Fatalf("interval %d keyed nobody: %s", i+1, s.line())
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
	out := rep.String()
	for _, want := range []string{"chaos soak seed=1 intervals=6 auditors=" + wantAuditors + " transport=loopback\n",
		"interval 01: phase=clean members=", " phase=kill ", " kill=2 ", "\nfinal: members=17 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestSocketSoakReplaysItsSchedule: replayed over loopback from its own
// recorded schedule, the socket soak executes the same joins, leaves,
// crashes and kills in every interval, records the same schedule and
// ends with the same member IDs. (Rung counts follow real timing, so the
// reports need not match byte for byte.)
func TestSocketSoakReplaysItsSchedule(t *testing.T) {
	cfg := DefaultSocketConfig("loopback")
	w, rep := replaySocketSoak(t, cfg, socketSchedule(cfg.Members, cfg.Intervals))
	text := rep.Schedule.String()
	sched, err := workload.ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	rw, replayed := replaySocketSoak(t, cfg, sched)
	if rep.TotalViolations()+replayed.TotalViolations() != 0 {
		t.Fatalf("violations:\n%s\n%s", rep, replayed)
	}
	for i, s := range rep.Intervals {
		r := replayed.Intervals[i]
		if s.Joins != r.Joins || s.Leaves != r.Leaves || s.Crashes != r.Crashes || s.Kills != r.Kills || s.Members != r.Members {
			t.Errorf("interval %d: run %s\nreplay %s", s.Index, s.line(), r.line())
		}
	}
	if replayed.Schedule.String() != text {
		t.Errorf("the replay recorded a different schedule:\n%s---\n%s", text, replayed.Schedule)
	}
	if final := memberIDs(w); !slices.EqualFunc(final, memberIDs(rw), ident.ID.Equal) || len(final) == 0 {
		t.Errorf("final members %v, replay %v", final, memberIDs(rw))
	}
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
			_, rep := replaySocketSoak(t, cfg, f.sched)
			if rep.TotalViolations() != 0 {
				t.Fatalf("replay of %s found violations:\n%s", f.name, rep)
			}
			if check := cornerCases[f.name]; check != nil {
				check(t, rep, nil)
			} else if f.command == nil {
				t.Errorf("%s: no corner-case check", f.name)
			}
		})
	}
}

// TestSocketSoakBuildsTheSimulatorTree: one seed and one committed
// schedule build one key tree whichever wire carries the rekeying. Over
// every plane-neutral schedule the simulator engine and a loopback
// socket world step through Step in lockstep, and after every interval
// they agree on the sorted member IDs, the rekey cost and the server's
// group key.
func TestSocketSoakBuildsTheSimulatorTree(t *testing.T) {
	sorted := func(ids []ident.ID) []ident.ID {
		ids = slices.Clone(ids)
		slices.SortFunc(ids, ident.ID.Compare)
		return ids
	}
	for _, f := range scheduleFiles(t) {
		if f.command != nil {
			continue // a reproducer belongs to the wire that printed it
		}
		t.Run(f.name, func(t *testing.T) {
			intervals := intervalsOf(f.sched)
			e, err := newEngine(Config{Seed: 1, Intervals: intervals, InitialMembers: len(f.sched.Cursor().Next(1))}, f.sched)
			if err != nil {
				t.Fatal(err)
			}
			run, err := newSocketRun(SocketConfig{Transport: "loopback", Seed: 1, Intervals: intervals}, f.sched)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { run.w.Close() })
			for i := range intervals {
				if err := e.step(e, i); err != nil {
					t.Fatal(err)
				}
				if err := run.step(i); err != nil {
					t.Fatal(err)
				}
				if a, b := e.cur.stats, run.stats; a.RekeyCost != b.RekeyCost {
					t.Fatalf("interval %d:\nsimulator %s\nsocket    %s", a.Index, a.line(), b.line())
				}
				if simIDs, sockIDs := sorted(e.dir.IDs()), sorted(memberIDs(run.w)); !slices.EqualFunc(simIDs, sockIDs, ident.ID.Equal) {
					t.Fatalf("interval %d members: simulator %v, socket %v", i+1, simIDs, sockIDs)
				}
				simKey, ok := e.tree.GroupKey()
				sockKey, sockOK := run.w.Tree().GroupKey()
				if !ok || !sockOK || !simKey.Equal(sockKey) {
					t.Fatalf("interval %d: group keys differ (simulator has one: %v, socket: %v)", i+1, ok, sockOK)
				}
			}
		})
	}
}
