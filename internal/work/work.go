// Package work is the one place a pipeline stage goes parallel: every
// fan-out in the tree — key regeneration, split compilation, keyring
// apply — is a single call to Run, and all of them draw on one
// process-wide set of helper goroutines. There is nothing to construct,
// inject or close, and no width to choose: every stage is test-pinned
// byte-identical at any width, so width is not a caller's decision — it
// is GOMAXPROCS, read at call time.
//
// Determinism contract: callers hand Run a unit count and a worker
// body that claims unit indices from a shared cursor and writes only to
// disjoint, index-addressed slots. Which goroutine executes which unit
// varies run to run; the units executed and the slots written do not,
// so same-seed runs stay byte-identical at any width.
//
// Deadlock freedom: helpers are persistent goroutines enlisted with a
// non-blocking send, and the calling goroutine always participates in
// its own Run. If every helper is busy — concurrent callers (many
// tenants, parallel experiment runs) or a Run issued from inside a
// worker body — the call simply degrades toward inline execution; it
// never waits on capacity, and concurrent callers share the helpers
// instead of each spawning their own.
package work

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	// jobs is unbuffered on purpose: a send succeeds only when a helper
	// is parked on the receive, which is what makes enlisting
	// non-blocking and capacity-aware.
	jobs = make(chan func())
	// started counts the helpers launched so far. Helpers start lazily,
	// grow to the widest Run seen, and live for the process.
	started atomic.Int32
)

// Width returns the widest fan-out a Run issued now can have.
func Width() int { return runtime.GOMAXPROCS(0) }

// Run executes units work items. worker(slot, next) is invoked on up to
// min(limit if > 0, Width(), units) goroutines; each invocation must
// loop on next(), which hands out unit indices [0, units) exactly once
// across all invocations, and return when next reports done. slot is a
// dense per-invocation index for per-worker scratch, always below
// units (and below limit when limit > 0).
//
// The caller always runs slot 0, and helpers are enlisted with a
// non-blocking send, so Run never waits on capacity: with all helpers
// busy it degrades to inline execution on the caller alone.
func Run(limit, units int, worker func(slot int, next func() (int, bool))) {
	if units <= 0 {
		return
	}
	width := Width()
	if limit > 0 && limit < width {
		width = limit
	}
	if units < width {
		width = units
	}
	if width <= 1 {
		i := 0
		worker(0, func() (int, bool) {
			n := i
			i++
			return n, n < units
		})
		return
	}
	for n := started.Load(); int(n) < width-1; n = started.Load() {
		if started.CompareAndSwap(n, n+1) {
			go func() {
				for job := range jobs {
					job()
				}
			}()
		}
	}

	var cursor atomic.Int64
	next := func() (int, bool) {
		i := cursor.Add(1) - 1
		return int(i), i < int64(units)
	}
	var wg sync.WaitGroup
enlist:
	for slot := 1; slot < width; slot++ {
		s := slot
		wg.Add(1)
		select {
		case jobs <- func() { defer wg.Done(); worker(s, next) }:
		default:
			wg.Done()
			break enlist
		}
	}
	worker(0, next)
	wg.Wait()
}
