package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestRunInTimestampOrder(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	var fired []time.Duration
	for i := 0; i < 1000; i++ {
		at := time.Duration(rng.Intn(10_000)) * time.Millisecond
		s.At(at, func(now time.Duration) {
			if now != at {
				t.Errorf("handler clock %v, want %v", now, at)
			}
			fired = append(fired, now)
		})
	}
	if got := s.Run(); got != 1000 {
		t.Fatalf("Run processed %d, want 1000", got)
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Error("events fired out of timestamp order")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after drain", s.Pending())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		s.At(time.Second, func(time.Duration) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order broken at %d: got %v", i, order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New()
	var hits []time.Duration
	s.At(10*time.Millisecond, func(now time.Duration) {
		hits = append(hits, now)
		s.At(now+5*time.Millisecond, func(now time.Duration) {
			hits = append(hits, now)
		})
	})
	s.Run()
	want := []time.Duration{10 * time.Millisecond, 15 * time.Millisecond}
	if len(hits) != 2 || hits[0] != want[0] || hits[1] != want[1] {
		t.Errorf("hits = %v, want %v", hits, want)
	}
	if s.Now() != 15*time.Millisecond {
		t.Errorf("Now = %v, want 15ms", s.Now())
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := New()
	fired := false
	s.At(-time.Second, func(now time.Duration) {
		fired = true
		if now != 0 {
			t.Errorf("now = %v, want 0", now)
		}
	})
	s.Run()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	s := New()
	var firedAt []time.Duration
	s.At(time.Second, func(now time.Duration) {
		// A fault injector working from a stale timestamp: the request
		// is in the past, so it must run at the current clock instead.
		s.At(500*time.Millisecond, func(at time.Duration) {
			firedAt = append(firedAt, at)
		})
	})
	s.Run()
	if len(firedAt) != 1 || firedAt[0] != time.Second {
		t.Fatalf("past-time event fired at %v, want [1s]", firedAt)
	}
	if s.PastClamps() != 1 {
		t.Errorf("PastClamps = %d, want 1", s.PastClamps())
	}
	if s.Now() != time.Second {
		t.Errorf("clamped event moved the clock to %v", s.Now())
	}
}

func TestPastClampsCounterStaysZeroForFutureEvents(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.At(time.Duration(i)*time.Millisecond, func(time.Duration) {})
	}
	s.Run()
	if s.PastClamps() != 0 {
		t.Errorf("PastClamps = %d, want 0", s.PastClamps())
	}
}

func TestRunUntilDeadline(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, at := range []time.Duration{1, 2, 3, 4, 5} {
		at := at * time.Second
		s.At(at, func(now time.Duration) { fired = append(fired, now) })
	}
	n := s.RunUntil(3 * time.Second)
	if n != 3 {
		t.Errorf("RunUntil processed %d, want 3", n)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	// Resume to completion.
	n = s.Run()
	if n != 2 || len(fired) != 5 {
		t.Errorf("resume processed %d (total fired %d), want 2 (5)", n, len(fired))
	}
}

func TestRunUntilAdvancesClockToDeadlineWhenIdle(t *testing.T) {
	s := New()
	s.At(10*time.Second, func(time.Duration) {})
	s.RunUntil(4 * time.Second)
	if s.Now() != 4*time.Second {
		t.Errorf("Now = %v, want 4s", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func(time.Duration) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("processed %d events before Stop, want 3", count)
	}
	if s.Pending() != 7 {
		t.Errorf("Pending = %d, want 7", s.Pending())
	}
	// A subsequent Run resumes.
	s.Run()
	if count != 10 {
		t.Errorf("after resume count = %d, want 10", count)
	}
}

func TestProcessedCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(time.Duration(i)*time.Millisecond, func(time.Duration) {})
	}
	s.Run()
	if s.Processed() != 5 {
		t.Errorf("Processed = %d, want 5", s.Processed())
	}
}

// TestRunUntilNeverRewindsTheClock: a deadline below Now with an event
// pending past it leaves the clock where it is, so a later At is
// neither clamped against nor ordered by a rewound clock.
func TestRunUntilNeverRewindsTheClock(t *testing.T) {
	s := New()
	s.At(10*time.Millisecond, func(time.Duration) {})
	s.At(50*time.Millisecond, func(time.Duration) {})
	s.RunUntil(20 * time.Millisecond)
	if n := s.RunUntil(5 * time.Millisecond); n != 0 {
		t.Errorf("RunUntil(5ms) processed %d events, want 0", n)
	}
	if s.Now() != 20*time.Millisecond {
		t.Errorf("Now = %v after a past deadline, want 20ms", s.Now())
	}
	var at time.Duration
	s.At(0, func(now time.Duration) { at = now })
	s.Run()
	if at != 20*time.Millisecond || s.PastClamps() != 1 {
		t.Errorf("past event ran at %v with %d clamps, want 20ms and 1", at, s.PastClamps())
	}
}

// TestHeapMatchesStableSort drives the hand-written heap through random
// timestamps with heavy ties, interleaved At and AtArg, handlers that
// schedule further events (some in the past, hence clamped) and Stop
// mid-run. The execution order must equal a stable sort of every event,
// in scheduling order, by its clamped time.
func TestHeapMatchesStableSort(t *testing.T) {
	type sched struct {
		at  time.Duration
		idx int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var scheduled []sched
		var ran []int
		var schedule func(at time.Duration)
		fire := func(now time.Duration, idx int) {
			if now != scheduled[idx].at {
				t.Fatalf("seed %d: event %d ran at %v, want %v", seed, idx, now, scheduled[idx].at)
			}
			ran = append(ran, idx)
			if rng.Intn(3) == 0 {
				schedule(now + time.Duration(rng.Intn(5)-2)*time.Millisecond)
			}
			if len(ran)%97 == 0 {
				s.Stop()
			}
		}
		schedule = func(at time.Duration) {
			idx := len(scheduled)
			scheduled = append(scheduled, sched{at: max(at, s.Now()), idx: idx})
			if rng.Intn(2) == 0 {
				s.AtArg(at, fire, idx)
			} else {
				s.At(at, func(now time.Duration) { fire(now, idx) })
			}
		}
		for i := 0; i < 300; i++ {
			schedule(time.Duration(rng.Intn(20)) * time.Millisecond)
		}
		runs := 0
		for s.Pending() > 0 {
			s.Run()
			runs++
		}

		want := append([]sched(nil), scheduled...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(ran) != len(want) {
			t.Fatalf("seed %d: ran %d events, scheduled %d", seed, len(ran), len(want))
		}
		for i, w := range want {
			if ran[i] != w.idx {
				t.Fatalf("seed %d: position %d ran event %d, want %d", seed, i, ran[i], w.idx)
			}
		}
		if runs < 2 || s.PastClamps() == 0 {
			t.Errorf("seed %d: %d runs and %d clamps; the test did not exercise Stop and the clamp", seed, runs, s.PastClamps())
		}
	}
}

// TestQueueAllocatesNothingPerEvent: once the heap has grown, scheduling
// with At (a prebuilt handler) or AtArg and running the queue dry
// allocates nothing.
func TestQueueAllocatesNothingPerEvent(t *testing.T) {
	s := New()
	sink := 0
	h := func(time.Duration) { sink++ }
	fn := func(_ time.Duration, arg int) { sink += arg }
	round := func() {
		for i := 0; i < 64; i++ {
			at := s.Now() + time.Duration(i*7%13)*time.Millisecond
			s.AtArg(at, fn, i)
			s.At(at, h)
		}
		s.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("128 events per round allocate %.1f times, want 0", allocs)
	}
	if sink == 0 {
		t.Error("no handler ran")
	}
}
