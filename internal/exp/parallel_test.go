package exp

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/overlay"
	"tmesh/internal/tmesh"
)

// atProcs runs fn with GOMAXPROCS set to n and restores it: the fan-out
// width is derived (internal/work), so this is how a test picks one.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func TestForEachUnitRunsEveryUnit(t *testing.T) {
	for _, procs := range []int{1, 3, 8} {
		atProcs(procs, func() {
			hits := make([]int32, 17)
			var progressCalls atomic.Int32
			err := forEachUnit(len(hits), func(unit int, _ time.Duration) {
				progressCalls.Add(1)
			}, func(unit int) error {
				atomic.AddInt32(&hits[unit], 1)
				return nil
			})
			if err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Errorf("procs=%d: unit %d ran %d times", procs, i, h)
				}
			}
			if int(progressCalls.Load()) != len(hits) {
				t.Errorf("procs=%d: progress called %d times, want %d", procs, progressCalls.Load(), len(hits))
			}
		})
	}
	if err := forEachUnit(0, nil, func(int) error { t.Fatal("fn called for n=0"); return nil }); err != nil {
		t.Error(err)
	}
}

func TestForEachUnitReportsLowestError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			err := forEachUnit(8, nil, func(unit int) error {
				switch unit {
				case 2:
					return errLow
				case 6:
					return errHigh
				}
				return nil
			})
			if !errors.Is(err, errLow) {
				t.Errorf("procs=%d: err = %v, want the lowest-unit error", procs, err)
			}
		})
	}
}

// TestRunLatencyParallelDeterminism is the tentpole guarantee: the
// parallel harness produces byte-identical results to the sequential
// path, on both topologies and for both sender modes. Under -race this
// also exercises concurrent readers of the GT-ITM tables.
func TestRunLatencyParallelDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  LatencyConfig
	}{
		{"planetlab", LatencyConfig{Topology: PlanetLab, Joins: 32, Runs: 6, Points: 8, Assign: smallAssign(), Seed: 7}},
		{"planetlab-data", LatencyConfig{Topology: PlanetLab, Joins: 32, Runs: 6, Points: 8, Assign: smallAssign(), Seed: 7, DataTransport: true}},
		{"gtitm", LatencyConfig{Topology: GTITM, Joins: 24, Runs: 4, Points: 8, Assign: smallAssign(), Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want, got *LatencyResult
			var err error
			atProcs(1, func() { want, err = RunLatency(tc.cfg) })
			if err != nil {
				t.Fatal(err)
			}
			atProcs(8, func() { got, err = RunLatency(tc.cfg) })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Series, got.Series) {
				t.Error("parallel series differ from sequential")
			}
			if !reflect.DeepEqual(want.Headlines, got.Headlines) {
				t.Errorf("parallel headlines differ: %v vs %v", got.Headlines, want.Headlines)
			}
		})
	}
}

// TestRunnersIgnoreWallClock pins the progress-callback contract: the
// elapsed wall-clock times forEachUnit hands to Progress are reporting
// only, so attaching a callback must not change a single result field —
// the runners' outputs are byte-compared across runs and machines.
func TestRunnersIgnoreWallClock(t *testing.T) {
	cfg := LatencyConfig{Topology: PlanetLab, Joins: 32, Runs: 4, Points: 8, Assign: smallAssign(), Seed: 9}
	for _, procs := range []int{1, 8} {
		atProcs(procs, func() {
			want, err := RunLatency(cfg)
			if err != nil {
				t.Fatal(err)
			}

			calls := 0
			probed := cfg
			probed.Progress = func(unit int, elapsed time.Duration) {
				calls++
				if elapsed < 0 {
					t.Errorf("unit %d: negative elapsed %v", unit, elapsed)
				}
			}
			got, err := RunLatency(probed)
			if err != nil {
				t.Fatal(err)
			}
			if calls == 0 {
				t.Fatalf("procs=%d: progress callback never fired", procs)
			}
			if !reflect.DeepEqual(want.Series, got.Series) {
				t.Errorf("procs=%d: progress callback changed the results", procs)
			}
		})
	}
}

func TestRunRekeyCostParallelDeterminism(t *testing.T) {
	cfg := RekeyCostConfig{
		N:       32,
		JValues: []int{0, 8},
		LValues: []int{0, 8},
		Runs:    4,
		Assign:  smallAssign(),
		Seed:    41,
	}
	var want, got []RekeyCostCell
	var err error
	atProcs(1, func() { want, err = RunRekeyCost(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	atProcs(8, func() { got, err = RunRekeyCost(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("parallel cells differ:\nseq %+v\npar %+v", want, got)
	}
}

// TestRunBandwidthParallelDeterminism fans the seven protocols out over
// one shared post-churn world; under -race it doubles as a concurrent
// read check on the directory, NICE overlay, and GT-ITM tables.
func TestRunBandwidthParallelDeterminism(t *testing.T) {
	cfg := BandwidthConfig{
		N:           48,
		ChurnJoins:  12,
		ChurnLeaves: 12,
		Assign:      smallAssign(),
		Seed:        43,
	}
	var want, got []BandwidthReport
	var err error
	atProcs(1, func() { want, err = RunBandwidth(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	atProcs(8, func() { got, err = RunBandwidth(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("report counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Protocol != got[i].Protocol || want[i].RekeyCost != got[i].RekeyCost {
			t.Errorf("report %d differs: %s/%d vs %s/%d",
				i, want[i].Protocol, want[i].RekeyCost, got[i].Protocol, got[i].RekeyCost)
		}
		if !reflect.DeepEqual(want[i].Received.Sorted(), got[i].Received.Sorted()) ||
			!reflect.DeepEqual(want[i].Forwarded.Sorted(), got[i].Forwarded.Sorted()) ||
			!reflect.DeepEqual(want[i].PerLink.Sorted(), got[i].PerLink.Sorted()) {
			t.Errorf("protocol %s: distributions differ between parallel and sequential", want[i].Protocol)
		}
	}
}

// TestCollectTmeshSenderPadding covers the zero-ID-sentinel bugfix: the
// sender's missing delay/RDP sample is padded from an explicit
// "sender is a user" flag, at the sender's rank position — even when
// the sender legitimately holds the all-zero ID.
func TestCollectTmeshSenderPadding(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 4}
	mkRec := func(v int) overlay.Record {
		id, err := ident.FromInt(params, v)
		if err != nil {
			t.Fatal(err)
		}
		return overlay.Record{ID: id}
	}
	// The sender (middle position) holds the all-zero ID, which the old
	// zero-value sentinel could not distinguish from "no sender".
	recs := []overlay.Record{mkRec(5), mkRec(0), mkRec(9)}
	res := &tmesh.Result{Users: map[ident.ID]*tmesh.UserStats{
		recs[0].ID: {Delay: 10 * time.Millisecond, RDP: 1.5, Stress: 1},
		recs[1].ID: {Stress: 2}, // the sender: forwards, never receives
		recs[2].ID: {Delay: 20 * time.Millisecond, RDP: 2.5},
	}}

	d := collectTmesh(res, recs, recs[1].ID, true)
	if n := len(d.delay.Sorted()); n != len(recs) {
		t.Errorf("data transport: %d delay samples, want %d (sender padded)", n, len(recs))
	}
	if n := len(d.rdp.Sorted()); n != len(recs) {
		t.Errorf("data transport: %d RDP samples, want %d", n, len(recs))
	}
	if min := d.delay.Sorted()[0]; min != 0 {
		t.Errorf("sender pad missing: min delay %v, want 0", min)
	}

	// Server transport: every user has a delivery sample, no padding.
	resSrv := &tmesh.Result{Users: map[ident.ID]*tmesh.UserStats{
		recs[0].ID: {Delay: 10 * time.Millisecond, RDP: 1.5},
		recs[1].ID: {Delay: 15 * time.Millisecond, RDP: 2.0},
		recs[2].ID: {Delay: 20 * time.Millisecond, RDP: 2.5},
	}}
	srv := collectTmesh(resSrv, recs, ident.ID{}, false)
	if n := len(srv.delay.Sorted()); n != len(recs) {
		t.Errorf("server transport: %d delay samples, want %d", n, len(recs))
	}
	if min := srv.delay.Sorted()[0]; min == 0 {
		t.Error("server transport should not pad a zero delay sample")
	}
}
