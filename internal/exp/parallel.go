package exp

import (
	"sync"
	"time"

	"tmesh/internal/work"
)

// Progress receives one report per completed simulation unit (a run,
// protocol, scenario, ...): its index and wall-clock duration. Runners
// serialise the calls, so implementations need no locking of their own.
type Progress func(unit int, elapsed time.Duration)

// forEachUnit executes fn(unit) for unit = 0..n-1 as units of the one
// process-wide fan-out (work.Run: width is GOMAXPROCS, and the stage
// fan-outs a unit issues itself nest inside it and degrade inline).
// Units must be independent: each derives its own RNG from its index
// and writes results only to its own index-addressed slot, so merged
// output is identical at every width. progress, when non-nil, is called
// once per completed unit (serialised, but not in unit order).
//
// Wall-clock discipline: the elapsed times handed to progress are the
// ONLY wall-clock reads in the runners, they exist solely for stderr
// reporting, and the clock is not read at all when progress is nil.
// Unit results must never include them — experiment outputs are
// byte-compared across runs (see TestRunnersIgnoreWallClock).
//
// All units are attempted even if one fails; the returned error is that
// of the lowest-numbered failing unit, whatever order they ran in.
func forEachUnit(n int, progress Progress, fn func(unit int) error) error {
	errs := make([]error, n)
	var progressMu sync.Mutex
	work.Run(0, n, func(_ int, next func() (int, bool)) {
		for unit, ok := next(); ok; unit, ok = next() {
			var start time.Time
			if progress != nil {
				start = time.Now()
			}
			errs[unit] = fn(unit)
			if errs[unit] == nil && progress != nil {
				elapsed := time.Since(start)
				progressMu.Lock()
				progress(unit, elapsed)
				progressMu.Unlock()
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
