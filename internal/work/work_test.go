package work

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// atProcs runs fn with GOMAXPROCS set to n and restores it: width is
// derived, so this is how a test picks one.
func atProcs(t testing.TB, n int, fn func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// drain is the canonical worker loop: claim units until next is done.
func drain(next func() (int, bool), unit func(i int)) {
	for {
		i, ok := next()
		if !ok {
			return
		}
		unit(i)
	}
}

// fill runs units through Run, each worker writing a deterministic byte
// into its disjoint slot — the write pattern every caller in the tree
// follows.
func fill(limit, units int) []byte {
	out := make([]byte, units)
	Run(limit, units, func(_ int, next func() (int, bool)) {
		drain(next, func(i int) { out[i] = byte(i * 7) })
	})
	return out
}

func TestRunCoversEveryUnitExactlyOnce(t *testing.T) {
	atProcs(t, 16, func() {
		for _, limit := range []int{0, 1, 2, 4, 16, 64} {
			bound := limit
			if bound <= 0 || bound > 16 {
				bound = 16
			}
			counts := make([]atomic.Int64, 1000)
			Run(limit, len(counts), func(slot int, next func() (int, bool)) {
				if slot < 0 || slot >= bound {
					t.Errorf("limit %d: slot %d out of range [0,%d)", limit, slot, bound)
				}
				drain(next, func(i int) { counts[i].Add(1) })
			})
			for i := range counts {
				if n := counts[i].Load(); n != 1 {
					t.Fatalf("limit=%d: unit %d executed %d times", limit, i, n)
				}
			}
		}
	})
}

// TestDeterministicAcrossWidths is the contract every stage relies on:
// the same disjoint-write workload produces byte-identical results
// whether it runs inline, two wide, or wider than the box.
func TestDeterministicAcrossWidths(t *testing.T) {
	want := fill(1, 512)
	for _, procs := range []int{1, 2, 3, 8, 32} {
		atProcs(t, procs, func() {
			if got := fill(0, 512); !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d diverged from inline result", procs)
			}
		})
	}
}

// TestNestedRunDoesNotDeadlock issues a Run from inside every worker
// body of an outer Run at width 2 — the nested calls must degrade to
// inline execution instead of waiting for helpers that are all occupied
// by the outer call.
func TestNestedRunDoesNotDeadlock(t *testing.T) {
	atProcs(t, 2, func() {
		var total atomic.Int64
		Run(0, 8, func(_ int, next func() (int, bool)) {
			drain(next, func(int) {
				Run(0, 16, func(_ int, inner func() (int, bool)) {
					drain(inner, func(int) { total.Add(1) })
				})
			})
		})
		if total.Load() != 8*16 {
			t.Fatalf("nested runs executed %d units, want %d", total.Load(), 8*16)
		}
	})
}

// TestConcurrentRuns hammers the shared helpers from many goroutines —
// the sharing mode many tenants or parallel experiment runs create.
// Every caller must see each of its own units exactly once; under -race
// this is also the package's data-race guard.
func TestConcurrentRuns(t *testing.T) {
	atProcs(t, 4, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 50; r++ {
					counts := make([]atomic.Int32, 64)
					Run(0, len(counts), func(_ int, next func() (int, bool)) {
						drain(next, func(i int) { counts[i].Add(1) })
					})
					for i := range counts {
						if n := counts[i].Load(); n != 1 {
							t.Errorf("concurrent run executed unit %d %d times", i, n)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestSingleProcRunsInline: at GOMAXPROCS(1) — and at limit 1 on any
// box — Run is one invocation of the worker body, slot 0, on the
// calling goroutine.
func TestSingleProcRunsInline(t *testing.T) {
	inline := func(limit int) {
		t.Helper()
		calls, sum := 0, 0 // unsynchronised on purpose: -race flags any helper
		Run(limit, 100, func(slot int, next func() (int, bool)) {
			calls++
			if slot != 0 {
				t.Errorf("inline run used slot %d", slot)
			}
			drain(next, func(i int) { sum += i })
		})
		if calls != 1 || sum != 99*100/2 {
			t.Errorf("limit %d: %d worker invocations, unit sum %d; want 1, %d", limit, calls, sum, 99*100/2)
		}
	}
	atProcs(t, 1, func() { inline(0); inline(8) })
	atProcs(t, 8, func() { inline(1) })
}

func TestEdgeCases(t *testing.T) {
	if Width() != runtime.GOMAXPROCS(0) {
		t.Errorf("Width() = %d, want GOMAXPROCS %d", Width(), runtime.GOMAXPROCS(0))
	}
	Run(0, 0, func(int, func() (int, bool)) { t.Error("worker invoked for zero units") })
	Run(4, -3, func(int, func() (int, bool)) { t.Error("worker invoked for negative units") })
	// A negative limit is "no limit", like zero.
	if got := fill(-1, 10); got[9] != byte(9*7) {
		t.Error("negative limit did not run")
	}
	// Fewer units than width: every unit still runs exactly once.
	atProcs(t, 8, func() {
		if got := fill(0, 3); !bytes.Equal(got, []byte{0, 7, 14}) {
			t.Errorf("3 units at width 8 = %v", got)
		}
	})
}
