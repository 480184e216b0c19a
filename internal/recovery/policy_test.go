package recovery

import (
	"testing"
	"time"
)

const ms = time.Millisecond

// TestPolicyBackoff pins the one capped-exponential schedule both
// drivers read: doubling from RetryBase, saturating at RetryMax,
// attempts below 1 reading as 1, and a shift that overflows int64
// landing on the cap instead of a negative or zero wait.
func TestPolicyBackoff(t *testing.T) {
	p := Policy{RetryBase: 50 * ms, RetryMax: 400 * ms}
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{
		{-3, 50 * ms}, {0, 50 * ms}, {1, 50 * ms}, {2, 100 * ms}, {3, 200 * ms},
		{4, 400 * ms}, {5, 400 * ms}, {40, 400 * ms}, {63, 400 * ms}, {64, 400 * ms}, {500, 400 * ms},
	} {
		if got := p.Backoff(tc.n); got != tc.want {
			t.Errorf("Backoff(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// A base whose shift wraps to a positive value below the cap would
	// slip past a naive `d > max` test; 1<<62 ns shifted once is negative.
	huge := Policy{RetryBase: 1 << 62, RetryMax: 1<<63 - 1}
	if got := huge.Backoff(2); got != huge.RetryMax {
		t.Errorf("overflowing Backoff(2) = %v, want the cap", got)
	}
}

// TestPolicyNext walks the whole ladder: unicast 1..RetryBudget, then
// resync 1..ResyncBudget, then dead; and checks Worst() is exactly the
// sum of the waits a driver that answers nothing sits through.
func TestPolicyNext(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Policy
		want []Step
	}{
		{"daemon", Policy{Timeout: 150 * ms, RetryBase: 50 * ms, RetryMax: 200 * ms, RetryBudget: 3, ResyncBudget: 2},
			[]Step{{ByUnicast, 1}, {ByUnicast, 2}, {ByUnicast, 3}, {ByResync, 1}, {ByResync, 2}}},
		{"one-unicast", Policy{Timeout: time.Second, RetryBase: time.Second, RetryMax: time.Second, RetryBudget: 1, ResyncBudget: 1},
			[]Step{{ByUnicast, 1}, {ByResync, 1}}},
		{"reliable-resync", Policy{Timeout: time.Second, RetryBase: 100 * ms, RetryMax: time.Second, RetryBudget: 2},
			[]Step{{ByUnicast, 1}, {ByUnicast, 2}, {ByResync, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err != nil {
				t.Fatal(err)
			}
			waited := tc.p.Wait(Step{})
			if waited != tc.p.Timeout {
				t.Fatalf("the multicast is given %v, want Timeout %v", waited, tc.p.Timeout)
			}
			s := Step{}
			for i, want := range tc.want {
				next, ok := tc.p.Next(s)
				if !ok || next != want {
					t.Fatalf("step %d: Next(%v) = %v, %v; want %v", i, s, next, ok, want)
				}
				s = next
				waited += tc.p.Wait(s)
			}
			if next, ok := tc.p.Next(s); ok {
				t.Fatalf("ladder did not run dry after %v: Next = %v", s, next)
			}
			if worst := tc.p.Worst(); worst < waited {
				t.Fatalf("Worst() = %v is below the %v the ladder can actually wait", worst, waited)
			}
		})
	}
	// The reliable resync is delivered, not waited on.
	p := Policy{Timeout: time.Second, RetryBase: 100 * ms, RetryMax: time.Second, RetryBudget: 2}
	if got, want := p.Worst(), time.Second+100*ms+200*ms; got != want {
		t.Errorf("reliable-resync Worst() = %v, want %v", got, want)
	}
}
