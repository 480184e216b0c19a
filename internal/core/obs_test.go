package core

import (
	"bytes"
	"reflect"
	"testing"

	"tmesh/internal/obs"
)

func newObservedGroup(t *testing.T, hosts int, clusterMode bool, reg *obs.Registry) *Group {
	t.Helper()
	g, err := NewGroup(Config{
		Net:             testNet(t, hosts),
		ServerHost:      0,
		Assign:          smallAssign(),
		K:               2,
		Seed:            5,
		RealCrypto:      true,
		ClusterRekeying: clusterMode,
		Obs:             reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPipelineTelemetryEquivalence extends the determinism contract to
// the observability layer: the same seed and workload must produce
// byte-identical rekey messages and identical reports with a registry
// attached and without one. Telemetry reads the pipeline; it never
// feeds back.
func TestPipelineTelemetryEquivalence(t *testing.T) {
	for _, clusterMode := range []bool{false, true} {
		name := "tree"
		if clusterMode {
			name = "cluster"
		}
		t.Run(name, func(t *testing.T) {
			plainG := newObservedGroup(t, 40, clusterMode, nil)
			reg := obs.New()
			obsG := newObservedGroup(t, 40, clusterMode, reg)
			plainMembers, plainMsgs, plainReps := driveWorkload(t, plainG)
			obsMembers, obsMsgs, obsReps := driveWorkload(t, obsG)

			if !reflect.DeepEqual(plainMembers, obsMembers) {
				t.Fatal("membership diverged with telemetry on")
			}
			if len(plainMsgs) != len(obsMsgs) {
				t.Fatalf("interval counts differ: %d vs %d", len(plainMsgs), len(obsMsgs))
			}
			for i := range plainMsgs {
				a, b := plainMsgs[i], obsMsgs[i]
				if a.Interval != b.Interval || len(a.Encryptions) != len(b.Encryptions) {
					t.Fatalf("interval %d: message shape differs with telemetry on", i)
				}
				for j := range a.Encryptions {
					ea, eb := a.Encryptions[j], b.Encryptions[j]
					if ea.ID != eb.ID || ea.KeyID != eb.KeyID || ea.KeyVersion != eb.KeyVersion ||
						!bytes.Equal(ea.Ciphertext, eb.Ciphertext) {
						t.Fatalf("interval %d encryption %d: not byte-identical with telemetry on", i, j)
					}
				}
			}
			for i := range plainReps {
				a, b := plainReps[i], obsReps[i]
				if !reflect.DeepEqual(a.ReceivedPerUser, b.ReceivedPerUser) ||
					!reflect.DeepEqual(a.ForwardedPerUser, b.ForwardedPerUser) ||
					!reflect.DeepEqual(a.LinkUnits, b.LinkUnits) ||
					a.ServerUnits != b.ServerUnits ||
					!reflect.DeepEqual(a.Deliveries, b.Deliveries) {
					t.Fatalf("interval %d: reports differ with telemetry on", i)
				}
			}

			// Guard against a vacuously green comparison: the pipeline must
			// have actually hit the instruments.
			snap := reg.Snapshot()
			counters := make(map[string]int64, len(snap.Counters))
			for _, c := range snap.Counters {
				counters[c.Name] = c.Value
			}
			if counters["core_apply_users"] == 0 {
				t.Error("core_apply_users never fired")
			}
			if counters["split_deliveries"] == 0 {
				t.Error("split_deliveries never fired")
			}
			if !clusterMode && counters["keytree_regen_subtrees"] == 0 {
				t.Error("keytree_regen_subtrees never fired")
			}
			hists := make(map[string]int64, len(snap.Histograms))
			for _, h := range snap.Histograms {
				hists[h.Name] = h.Count
			}
			for _, name := range []string{"core_regen_ns", "core_deliver_ns", "core_apply_ns"} {
				if hists[name] == 0 {
					t.Errorf("span histogram %s has no samples", name)
				}
			}
		})
	}
}

// TestPipelineTelemetryRace drives the regen and apply fan-outs with a
// shared registry eight wide; under -race this checks that concurrent
// counter and histogram updates from both stages are safe.
func TestPipelineTelemetryRace(t *testing.T) {
	reg := obs.New()
	g := newObservedGroup(t, 40, false, reg)
	driveAt(t, 8, g)
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatal("registry stayed empty under the parallel workload")
	}
}
