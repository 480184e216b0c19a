package chaos

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"tmesh/internal/work"
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
